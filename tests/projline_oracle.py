"""Equivalence of marked tuples by normalising both, kept apart from the
library, which decides equivalence of canonical tuples from their known
normal forms (`projline.canonical_tuples_equivalent`)."""

from kleinprym.projline import normalize_tuple


def tuples_equivalent(t1, t2, convention="pair-unordered") -> bool:
    """True iff a Moebius map matches t1 to t2 respecting the named
    convention: a normal form of t1 equals one of t2, or its swap when the
    pair is unordered (any convention but "ordered")."""
    forms1, forms2 = ([(r.params.a, r.params.b) for r in normalize_tuple(t, convention)]
                      for t in (t1, t2))
    return any(f in forms2 or (convention != "ordered" and f[::-1] in forms2) for f in forms1)
