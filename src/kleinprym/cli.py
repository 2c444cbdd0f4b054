"""Command-line surface.  Every subcommand assembles a plain dict and prints
it either as JSON (sorted keys, so identical requests give byte-identical
output) or as an indented text projection of the same data.

Exit codes: 0 success, 1 domain/argument error, 2 internal invariant
violation or unexpected failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import click

from .errors import ArgumentError, InternalInvariantError, KleinPrymError
from .algebra import DEFAULT_PRECISION_BITS, parse_rational
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
from .moduli import moduli_report, phi_consistency_report, phi_fiber
from .torsion import MAX_LEVEL, duality_chain, example_surj_report
from .isogeny import KernelPoint, WeierstrassCurve, dual_nonisomorphism_check

class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value)
        except ArgumentError as exc:
            self.fail(str(exc), param, ctx)


RATIONAL = RationalParam()

_format_option = click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                              default="json", show_default=True,
                              help="Output encoding; text is a projection of the JSON.")
_convention_option = click.option(
    "--convention", type=click.Choice(list(CONVENTIONS)),
    default="pair-unordered", show_default=True,
    help="Which parts of the marking carry an ordering. 'ordered' and "
         "'pair-unordered' print the same results: a normal form keeps the pair "
         "as given, and the involution report decides every convention's "
         "equivalence whichever is chosen.")


def _echo(text: str) -> None:
    # Name the stream: without `file`, click caches a wrapper per sys.stdout
    # object, and that cache keeps every redirected stdout and its text alive.
    click.echo(text, file=sys.stdout)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _echo(json.dumps(report, sort_keys=True, indent=2))
        return
    for line in _text_lines(report, 0):
        _echo(line)


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


@click.group()
def cli():
    """Exact and analytic reports on the genus-3 family
    y^2 = (x^4 + a x^2 + 1)(x^4 + b x^2 + 1) and its Prym constructions."""


@cli.command()
@click.option("--a", "a", type=RATIONAL, required=True)
@click.option("--b", "b", type=RATIONAL, required=True)
@_format_option
def analyze(a, b, fmt):
    """All nine quotient curves, fixed-point profile, and identity checks."""
    params = check_domain(a, b)
    models = {label: curve_equation(label, params) for label in CurveLabel}
    ctilde_rhs = models[CurveLabel.Ctilde].rhs
    curves = [curve_report(label, model) for label, model in models.items()]
    verdicts = {label.value: verify_quotient_identity(quotient_map(label), ctilde_rhs,
                                                      models[label].rhs)
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


@cli.command()
@click.option("--tuple", "tuple_text", required=True,
              help="Marked tuple, format 'x1,x2;p,q,r!k' with 'inf' allowed.")
@_convention_option
@_format_option
def normalize(tuple_text, convention, fmt):
    """Normalise a marked 5-tuple to the canonical frame."""
    t = MarkedTuple.from_string(tuple_text)
    conv = CONVENTIONS[convention]
    results = []
    for r in normalize_tuple(t, conv):
        results.append({
            "a": str(r.params.a),
            "b": str(r.params.b),
            "witness_map": [str(e) for e in r.transform.entries()],
        })
    _emit({"input": t.to_string(), "convention": convention,
           "normalizations": results}, fmt)


@cli.command()
@click.option("--a", "a", type=RATIONAL, required=True)
@click.option("--b", "b", type=RATIONAL, required=True)
@_convention_option
@_format_option
def involution(a, b, convention, fmt):
    """The deck involution: image, fibre invariants, consistency report."""
    params = check_domain(a, b)
    conv = CONVENTIONS[convention]
    fiber = phi_fiber(params)
    report = moduli_report(fiber)
    report["consistency"] = phi_consistency_report(fiber, conv)
    _emit(report, fmt)


@cli.command()
@click.option("--a", "a", type=RATIONAL, required=True)
@click.option("--b", "b", type=RATIONAL, required=True)
@click.option("--bits", type=int, default=DEFAULT_PRECISION_BITS, show_default=True,
              help="Working precision in bits.")
@_format_option
def periods(a, b, bits, fmt):
    """Period lattices of the elliptic quotients and the 2x4 Prym matrix."""
    params = check_domain(a, b)
    from .periods import periods_report  # mpmath loads only for the commands that use it

    _emit(periods_report(params, bits), fmt)


@cli.command()
@click.option("--d", "d", type=click.IntRange(2, MAX_LEVEL), required=True)
@_format_option
def torsion(d, fmt):
    """Factor intersections and the duality chain for the (1,d) quotient."""
    _emit(duality_chain(d), fmt)


@cli.command()
@click.option("--curveE", "curve_e", required=True, help="E as 'p,q'.")
@click.option("--pointP", "point_p", required=True, help="P as 'x,y'.")
@click.option("--curveF", "curve_f", required=True, help="F as 'p,q'.")
@click.option("--pointQ", "point_q", required=True, help="Q as 'x,y'.")
@click.option("--assert-nonisogenous", is_flag=True, default=False,
              help="Caller asserts E and F are not isogenous (not verified here).")
@_format_option
def duality(curve_e, point_p, curve_f, point_q, assert_nonisogenous, fmt):
    """Dual-non-isomorphism certificate for (E x F)/<(P, Q)>."""
    E = WeierstrassCurve.from_string(curve_e)
    F = WeierstrassCurve.from_string(curve_f)
    P = KernelPoint.from_string(E, point_p)
    Q = KernelPoint.from_string(F, point_q)
    _emit(dual_nonisomorphism_check(E, P, F, Q, assert_nonisogenous), fmt)


@cli.command(name="example-surj")
@_format_option
def example_surj(fmt):
    """The square-lattice worked example: polarisation kernel and graph curves."""
    _emit(example_surj_report(), fmt)


@cli.command()
def selftest():
    """Run the full acceptance suite; one line per criterion."""
    from . import acceptance

    results = acceptance.run_all()
    for r in results:
        _echo(r.line())
    if not all(r.passed for r in results):
        raise InternalInvariantError("acceptance suite failed")
    _echo(f"all {len(results)} criteria passed")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
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
