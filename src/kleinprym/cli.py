"""Command-line surface.  Every subcommand assembles a plain dict and prints
it either as JSON (sorted keys, so identical requests give byte-identical
output) or as an indented text projection of the same data.

One table, `COMMANDS`, maps each subcommand to its callback and its options,
and `_parse` walks it once per call.  Options come in any order, as
`--opt value` or `--opt=value`; a value may start with "-" (`--b -13/4`), and
the last of a repeated option wins.

JSON is written by `_json`, byte-identical to `json.dumps(report,
sort_keys=True, indent=2, allow_nan=False)`: an indent sends json to its
pure-Python encoder, 1.3 to 2 times slower and leaving a reference cycle per
call.

Exit codes: 0 success, 1 usage/domain/argument error, 2 internal invariant
violation or unexpected failure.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .errors import ArgumentError, InternalInvariantError, KleinPrymError
from .algebra import (DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, MIN_PRECISION_BITS, brief,
                      parse_rational)
from .family import (
    CurveLabel,
    InvolutionLabel,
    QUOTIENT_LABELS,
    check_domain,
    curve_equation,
    curve_report,
    fixed_point_count,
    quotient_map,
    verify_quotient_identity,
)
from .projline import CONVENTIONS, MarkedTuple, normalize_tuple
from .moduli import PhiFiber, moduli_report, phi_consistency_report
from .torsion import MAX_LEVEL, duality_chain, example_surj_report
from .isogeny import KernelPoint, WeierstrassCurve, dual_nonisomorphism_check

_DESCRIPTION = """Exact and analytic reports on the genus-3 family
y^2 = (x^4 + a x^2 + 1)(x^4 + b x^2 + 1) and its Prym constructions."""


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(report))
        return
    for line in _text_lines(report, 0):
        print(line)


# JSON's spelling of the scalars whose repr reads otherwise; the repr of a
# non-finite float has no spelling in strict JSON
_SPELLING = {"None": "null", "True": "true", "False": "false"}
_NON_FINITE = {"nan", "inf", "-inf"}
_SCALARS = (int, float, bool, type(None))
_STR = {str}


def _json(value, pad="\n"):
    """`json.dumps(value, sort_keys=True, indent=2, allow_nan=False)` for dicts
    with str keys, lists, str, int, finite float, bool and None, with `pad`
    the newline and indentation of `value`'s own line; InternalInvariantError
    for a non-finite float and for any other type, a subclass of these
    included."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind in _SCALARS:
        text = kind.__repr__(value)
        if text in _NON_FINITE:
            raise InternalInvariantError(f"a report holds the float {text}, which JSON cannot write")
        return _SPELLING.get(text, text)
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        items = (map(_quote, value) if {*map(type, value)} == _STR
                 else [_json(item, inner) for item in value])
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        if {*map(type, value)} != _STR:  # before sorted() meets mixed keys
            raise InternalInvariantError("a report has a key that is not a str")
        inner = pad + "  "
        items = [_quote(key) + ": " + _json(item, inner) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise InternalInvariantError(f"a report holds a {kind.__name__}, which JSON cannot write")


def _text_lines(value, depth):
    pad = "  " * depth
    if isinstance(value, dict):
        for key in value:
            inner = value[key]
            if isinstance(inner, (dict, list)):
                yield f"{pad}{key}:"
                yield from _text_lines(inner, depth + 1)
            else:
                yield f"{pad}{key}: {inner}"
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                yield f"{pad}-"
                yield from _text_lines(inner, depth + 1)
            else:
                yield f"{pad}- {inner}"
    else:
        yield f"{pad}{value}"


def analyze(a, b, fmt):
    """All nine quotient curves, fixed-point profile, and identity checks."""
    params = check_domain(a, b)
    models = {label: curve_equation(label, params) for label in CurveLabel}
    curves = [curve_report(label, rhs) for label, rhs in models.items()]
    verdicts = {label.value: verify_quotient_identity(quotient_map(label),
                                                      models[CurveLabel.Ctilde], models[label])
                for label in QUOTIENT_LABELS}
    profile = {}
    for inv in InvolutionLabel:
        count, fibres = fixed_point_count(inv, params)
        profile[inv.value] = {"count": count, "fibres": fibres}
    _emit({
        "params": {"a": str(a), "b": str(b)},
        "curves": curves,
        "quotient_identities_verified": verdicts,
        "fixed_points": profile,
    }, fmt)


def normalize(tuple_text, convention, fmt):
    """Normalise a marked 5-tuple to the canonical frame."""
    t = MarkedTuple.from_string(tuple_text)
    results = []
    for r in normalize_tuple(t, convention):
        results.append({
            "a": str(r.params.a),
            "b": str(r.params.b),
            "witness_map": [str(e) for e in r.transform.entries()],
        })
    _emit({"input": t.to_string(), "convention": convention,
           "normalizations": results}, fmt)


def involution(a, b, convention, fmt):
    """The deck involution: image, fibre invariants, consistency report."""
    fiber = PhiFiber(check_domain(a, b))
    report = moduli_report(fiber)
    report["consistency"] = phi_consistency_report(fiber, convention)
    _emit(report, fmt)


def periods(a, b, bits, fmt):
    """Period lattices of the elliptic quotients and the 2x4 Prym matrix."""
    params = check_domain(a, b)
    from .periods import periods_report  # mpmath loads only for the commands that use it

    _emit(periods_report(params, bits), fmt)


def torsion(d, fmt):
    """Factor intersections and the duality chain for the (1,d) quotient."""
    _emit(duality_chain(d), fmt)


def duality(curve_e, point_p, curve_f, point_q, assert_nonisogenous, fmt):
    """Dual-non-isomorphism certificate for (E x F)/<(P, Q)>."""
    E = WeierstrassCurve.from_string(curve_e)
    F = WeierstrassCurve.from_string(curve_f)
    P = KernelPoint.from_string(E, point_p)
    Q = KernelPoint.from_string(F, point_q)
    _emit(dual_nonisomorphism_check(E, P, F, Q, assert_nonisogenous), fmt)


def example_surj(fmt):
    """The square-lattice worked example: polarisation kernel and graph curves."""
    _emit(example_surj_report(), fmt)


def selftest():
    """Run the full acceptance suite; one line per criterion."""
    from . import acceptance

    results = acceptance.run_all()
    for r in results:
        print(r.line())
    if not all(r.passed for r in results):
        raise InternalInvariantError("acceptance suite failed")
    print(f"all {len(results)} criteria passed")


# ---------------------------------------------------------------------------
# The command table and its parser
# ---------------------------------------------------------------------------


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ArgumentError(f"{brief(text)} is not an integer") from None


def _level(text: str) -> int:
    d = _integer(text)
    if not 2 <= d <= MAX_LEVEL:
        raise ArgumentError(f"{d} is not in 2..{MAX_LEVEL}")
    return d


@dataclass(frozen=True)
class Option:
    """One option of a subcommand, passed to its callback as `dest`.  A
    `convert` of None makes a flag, which takes no value and gives True."""

    flag: str
    dest: str
    convert: object = str
    required: bool = False
    default: object = None
    choices: tuple = ()
    help: str = ""
    metavar: str = "TEXT"


_A = Option("--a", "a", parse_rational, required=True, metavar="RATIONAL")
_B = Option("--b", "b", parse_rational, required=True, metavar="RATIONAL")
_FORMAT = Option("--format", "fmt", default="json", choices=("json", "text"),
                 help="Output encoding; text is a projection of the JSON.")
_CONVENTION = Option(
    "--convention", "convention", default="pair-unordered", choices=CONVENTIONS,
    help="Which parts of the marking carry an ordering. 'ordered' and "
         "'pair-unordered' print the same results: a normal form keeps the pair "
         "as given, and the involution report decides every convention's "
         "equivalence whichever is chosen.")


def _command(callback, *options):
    return callback, {option.flag: option for option in options}


COMMANDS = {
    "analyze": _command(analyze, _A, _B, _FORMAT),
    "normalize": _command(
        normalize,
        Option("--tuple", "tuple_text", required=True,
               help="Marked tuple, format 'x1,x2;p,q,r!k' with 'inf' allowed."),
        _CONVENTION, _FORMAT),
    "involution": _command(involution, _A, _B, _CONVENTION, _FORMAT),
    "periods": _command(
        periods, _A, _B,
        Option("--bits", "bits", _integer, default=DEFAULT_PRECISION_BITS,
               help=f"Working precision in bits, {MIN_PRECISION_BITS}..{MAX_PRECISION_BITS}.",
               metavar="INTEGER"),
        _FORMAT),
    "torsion": _command(torsion, Option("--d", "d", _level, required=True,
                                        metavar=f"2..{MAX_LEVEL}"), _FORMAT),
    "duality": _command(
        duality,
        Option("--curveE", "curve_e", required=True, help="E as 'p,q'."),
        Option("--pointP", "point_p", required=True, help="P as 'x,y'."),
        Option("--curveF", "curve_f", required=True, help="F as 'p,q'."),
        Option("--pointQ", "point_q", required=True, help="Q as 'x,y'."),
        Option("--assert-nonisogenous", "assert_nonisogenous", None, default=False,
               help="Caller asserts E and F are not isogenous (not verified here)."),
        _FORMAT),
    "example-surj": _command(example_surj, _FORMAT),
    "selftest": _command(selftest),
}


class UsageError(Exception):
    """A command line that names no call.  Its args are the subcommand that
    the line names, or None, and the message."""


def _parse(argv):
    """The callback and keyword arguments that `argv` names; a `--help` names
    printing the help.  Raises UsageError for any other line."""
    if not argv:
        raise UsageError(None, "no command given")
    name, *rest = argv
    if name == "--help":
        return _help, {"name": None}
    if name not in COMMANDS:
        raise UsageError(None, f"no such command {brief(name)}")
    callback, options = COMMANDS[name]
    given = {}
    rest = iter(rest)
    for token in rest:
        if token == "--help":
            return _help, {"name": name}
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None:
            what = "option" if token.startswith("-") else "argument"
            raise UsageError(name, f"unexpected {what} {brief(token)}")
        if option.convert is None:
            if eq:
                raise UsageError(name, f"option '{flag}' takes no value")
        elif not eq:
            value = next(rest, None)
            if value is None:
                raise UsageError(name, f"option '{flag}' needs a value")
        given[flag] = value
    kwargs = {}
    for flag, option in options.items():
        if flag not in given:
            if option.required:
                raise UsageError(name, f"missing option '{flag}'")
            kwargs[option.dest] = option.default
        elif option.convert is None:
            kwargs[option.dest] = True
        elif option.choices and given[flag] not in option.choices:
            raise UsageError(name, f"invalid value for '{flag}': {brief(given[flag])} is "
                                   f"not one of {', '.join(option.choices)}")
        else:
            try:
                kwargs[option.dest] = option.convert(given[flag])
            except ArgumentError as exc:
                raise UsageError(name, f"invalid value for '{flag}': {exc}") from None
    return callback, kwargs


def _usage(name) -> str:
    return f"kleinprym {name or 'COMMAND'} [OPTIONS]"


def _help(name):
    """Print the help of one subcommand, or of the program for None."""
    import textwrap

    if name is None:
        intro, heading = _DESCRIPTION, "Commands:"
        rows = [(command, callback.__doc__) for command, (callback, _) in COMMANDS.items()]
    else:
        callback, options = COMMANDS[name]
        intro, heading = callback.__doc__, "Options:"
        rows = []
        for o in options.values():
            if o.convert is None:
                left, note = o.flag, ""
            else:
                left = f"{o.flag} {'[' + '|'.join(o.choices) + ']' if o.choices else o.metavar}"
                note = "[required]" if o.required else f"[default: {o.default}]"
            rows.append((left, f"{o.help}  {note}".strip()))
        rows.append(("--help", "Show this message and exit."))
    # a left column wider than 24 puts its text on the next line
    width = min(max(len(left) for left, _ in rows), 24) + 4
    print(f"Usage: {_usage(name)}\n\n{textwrap.indent(intro, '  ')}\n\n{heading}")
    for left, text in rows:
        first = f"  {left}".ljust(width)
        if len(first) > width:
            print(first)
            first = " " * width
        print(textwrap.fill(text, 79, initial_indent=first, subsequent_indent=" " * width,
                            break_on_hyphens=False))


def main(argv=None) -> int:
    """Run one command line, `sys.argv[1:]` when `argv` is None; returns its
    exit code."""
    try:
        callback, kwargs = _parse(sys.argv[1:] if argv is None else argv)
        callback(**kwargs)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
    except BrokenPipeError:
        # the reader of stdout (say `head`) has gone: send what is left to
        # devnull, so the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        name, message = exc.args
        print(f"usage: {_usage(name)}  (see --help)\nerror: {message}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except KleinPrymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected is a bug
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
