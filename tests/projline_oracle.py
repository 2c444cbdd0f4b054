"""Equivalence of marked tuples by normalising both, kept apart from the
library, which decides equivalence of canonical tuples from their known
normal forms (`projline.canonical_normal_forms`)."""

from kleinprym.projline import MarkingConvention, normal_forms_match, normalize_tuple


def tuples_equivalent(t1, t2, conv=MarkingConvention()) -> bool:
    """True iff a Moebius map matches t1 to t2 respecting the convention."""
    return normal_forms_match([r.params for r in normalize_tuple(t1, conv)],
                              [r.params for r in normalize_tuple(t2, conv)], conv)
