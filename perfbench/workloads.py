"""The benchmark's three workloads: seeded inputs, the op that feeds them to
kleinprym, and the check of every op's output.

An op is a closed-loop request: one or more in-process CLI calls through
`kleinprym.cli.main(argv)` with stdout captured, or a public library call
where no subcommand exists.  Inputs come in rounds with a fixed mix, so the
share of each input class in a run does not depend on where the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from kleinprym import cli, torsion

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

LOW_HEIGHT = 50
HIGH_HEIGHT = 10**6
PERIOD_BITS = {128: 3, 256: 6, 1024: 3, 4096: 2}  # inputs per 14-op round
# bits classes of the near-locus points in each round of a 4-round block:
# 7 of every 56 points, in proportion to the class sizes at 256 bits or more
NEAR_PLAN = ((256, 1024), (256, 4096), (256, 1024), (256,))
NEAR_DISTANCE = Fraction(1, 10**10)
# from this precision on, a periods op's time follows big-integer arithmetic
# (polyroots is 97% of it), so hostspeed scales it by the big-integer reference
BIGINT_BITS = 4096
LOCI = ("a=b", "a=2", "a=-2", "b=2", "b=-2")
LEVELS = range(2, 9)
CONVENTIONS = ("ordered", "pair-unordered", "all-unordered")
# (a, b) of the crash repro in ROADMAP open item 1, run at the default bits
ROADMAP_REPRO = (Fraction(200000000000000000001, 100000000000000000000), Fraction(1, 3))

# One line per workload; run.py prints it and README.md keeps the measured values.
PROPERTIES = {
    "exact_reports": (
        "points (a, b): half height <= 50, half height <= 10^6; no near-locus points; "
        "no mpmath, no torsion"),
    "torsion_kernels": (
        "per round: torsion --d N for N = 2..8, one seeded ker_phi_H kernel per N, "
        "one example-surj; the torsion --d and example-surj ops repeat by nature"),
    "periods_mixed": (
        "per 14-op round: bits 128/256/1024/4096 x 3/6/3/2; heights <= 50 and <= 10^6 "
        "half each per bits class; 7 in 56 points (12.5%) at 1e-10 from a = b or "
        "a, b = +-2, at 256 bits or more"),
}


class Op:
    """One request: CLI argv lists and/or one library call, plus its check."""

    __slots__ = ("key", "tag", "argvs", "library", "check", "work")

    def __init__(self, key, tag, argvs=(), library=None, check=None, work="interpreter"):
        self.key = key          # input identity, for the repeated-input share
        self.tag = tag          # bits for periods ops; None elsewhere
        self.argvs = argvs
        self.library = library
        self.check = check
        self.work = work        # the hostspeed reference its time is scaled by

    def execute(self):
        """Run the op; returns (outputs, error) where error is None on success."""
        outputs = []
        try:
            for argv in self.argvs:
                code, out, err = call_cli(argv)
                if code != 0:
                    return outputs, f"{' '.join(argv)}: exit {code}: {err.strip()}"
                outputs.append(out)
            if self.library is not None:
                outputs.append(self.library())
        except Exception as exc:  # a raising op is one failed op; the run goes on
            return outputs, f"raised {type(exc).__name__}: {exc}"
        return outputs, None


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _rational(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def _family_point(rng, height):
    """A point of the smooth domain where the deck involution is defined."""
    while True:
        a, b = _rational(rng, height), _rational(rng, height)
        if a != b and a * a != 4 and b * b != 4 and a + b != 0:
            return a, b


def near_locus(a, b, locus, distance):
    """Move (a, b) to the given distance from one discriminant locus."""
    if locus == "a=b":
        return a, a + distance
    value = Fraction(int(locus[2:]))
    return (value + distance, b) if locus[0] == "a" else (a, value + distance)


def _mobius_image(m, x):
    """Image of x (None is infinity) under (m0 x + m1)/(m2 x + m3)."""
    if x is None:
        return None if m[2] == 0 else Fraction(m[0], m[2])
    den = m[2] * x + m[3]
    return None if den == 0 else (m[0] * x + m[1]) / den


def _pushed_tuple(rng, a, b):
    """The canonical marked tuple of (a, b) moved by a random Moebius map."""
    while True:
        m = [rng.randint(-9, 9) for _ in range(4)]
        if m[0] * m[3] - m[1] * m[2] != 0:
            break
    points = [_mobius_image(m, x) for x in (-a, -b, None, Fraction(2), Fraction(-2))]
    text = ["inf" if p is None else str(p) for p in points]
    return f"{text[0]},{text[1]};{text[2]},{text[3]},{text[4]}!0"


def _short_weierstrass(roots):
    """(p, q) of y^2 = prod (x - r) moved to y^2 = x^3 + p x + q."""
    mean = sum(roots) / 3
    e1, e2, e3 = (r - mean for r in roots)
    return e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3, mean


def weierstrass_j(p, q):
    return 1728 * 4 * p ** 3 / (4 * p ** 3 + 27 * q * q)


def _duality_argv(rng, a, b):
    args = ["duality"]
    for flag_curve, flag_point, third in (("--curveE", "--pointP", 2),
                                          ("--curveF", "--pointQ", -2)):
        roots = (-a, -b, Fraction(third))  # E_is_it, then E_is_t
        p, q, mean = _short_weierstrass(roots)
        kernel_x = rng.choice(roots) - mean
        args += [flag_curve, f"{p},{q}", flag_point, f"{kernel_x},0"]
    return args + ["--assert-nonisogenous"]


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------

FIXED_POINTS = {"iota": 8, "sigma": 4, "tau": 4, "sigma_tau": 4,
                "iota_sigma": 0, "iota_tau": 0, "iota_sigma_tau": 0}


def _check_exact(a, b, outputs):
    analyze, involution = json.loads(outputs[0]), json.loads(outputs[1])
    normalized = [json.loads(out)["normalizations"] for out in outputs[2:5]]
    duality = json.loads(outputs[5])
    identities = analyze["quotient_identities_verified"]
    if len(identities) != 9 or not all(identities.values()):
        return "a quotient identity failed"
    profile = {k: v["count"] for k, v in analyze["fixed_points"].items()}
    if profile != FIXED_POINTS:
        return f"fixed-point profile {profile}"
    s = a + b
    if involution["phi_params"] != [str((2 * b - 2 * a - 8) / s), str((2 * a - 2 * b - 8) / s)]:
        return f"phi image {involution['phi_params']}"
    if not involution["consistency"]["fiber_invariants_match"]:
        return "fiber invariants differ across phi"
    pairs = [[(n["a"], n["b"]) for n in result] for result in normalized]
    here, negated = (str(a), str(b)), (str(-a), str(-b))
    if pairs[0] != [here] or pairs[1] != [here] or sorted(pairs[2]) != sorted([here, negated]):
        return f"normalizations {pairs}"
    js = [Fraction(duality[k]) for k in ("j_E", "j_E_mod_P", "j_F", "j_F_mod_Q")]
    if duality["premise_holds"] != (js[1] != js[0] or js[3] != js[2]):
        return "premise_holds disagrees with the j values"
    for third, j in ((2, js[0]), (-2, js[2])):
        p, q, _ = _short_weierstrass((-a, -b, Fraction(third)))
        if weierstrass_j(p, q) != j:
            return f"j of the curve with root {third} is {j}"
    return None


def _poly_mul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def quotient_j_invariants(a, b):
    """Exact j of the six elliptic quotients, from the binary-quartic
    invariants I, J of each right-hand side (coefficients low to high)."""
    ab = _poly_mul([a, 1], [b, 1])  # (x + a)(x + b)
    models = {
        "E_t": _poly_mul([a - 2, 0, 1], [b - 2, 0, 1]),
        "E_s": _poly_mul([1, a, 1], [1, b, 1]),
        "E_st": _poly_mul([a + 2, 0, 1], [b + 2, 0, 1]),
        "E_is_it": _poly_mul(ab, [-2, 1]),
        "E_s_it": _poly_mul(ab, [-4, 0, 1]),
        "E_is_t": _poly_mul(ab, [2, 1]),
    }
    js = {}
    for label, coeffs in models.items():
        e, d, c, b3, a4 = (coeffs + [Fraction(0)] * 5)[:5]
        inv_i = 12 * a4 * e - 3 * b3 * d + c * c
        inv_j = 72 * a4 * c * e + 9 * b3 * c * d - 27 * a4 * d * d - 27 * e * b3 * b3 - 2 * c ** 3
        js[label] = 6912 * inv_i ** 3 / (4 * inv_i ** 3 - inv_j ** 2)
    return js


def _check_periods(a, b, bits, outputs):
    report = json.loads(outputs[0])
    if report["precision_bits"] != bits:
        return f"precision_bits {report['precision_bits']}"
    slack = Fraction(2) ** (4 - bits // 4)
    for label, j in quotient_j_invariants(a, b).items():
        delta = Fraction(report["analytic_vs_exact_j"][label])
        if delta > slack * max(1, abs(j)):
            return f"j closure failed for {label}: delta {float(delta):.3g}"
    if Fraction(report["riemann_residual_symmetry"]) >= Fraction(2) ** (16 - bits):
        return f"Riemann residual {report['riemann_residual_symmetry']}"
    if not report["riemann_min_eigenvalue"] > 0:
        return f"Riemann minimum eigenvalue {report['riemann_min_eigenvalue']}"
    if report["reduction_symplectic"] is not True:
        return "reduction is not symplectic"
    return None


def _check_pinned(name, outputs):
    report = json.loads(outputs[0])
    if not report["all_ok"]:
        return f"{name}: all_ok is false"
    if digest(outputs) != PINS[name]:
        return f"{name}: output differs from the pinned digest"
    return None


def _check_kernel(level, order, outputs):
    kernel = json.loads(outputs[0])["ker_phi_H"]
    expected = level ** 4 // order ** 2
    if len(kernel) != expected:
        return f"|ker_phi_H| = {len(kernel)} at level {level}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# Ops and rounds
# ---------------------------------------------------------------------------


def exact_op(rng, height):
    a, b = _family_point(rng, height)
    point = ["--a", str(a), "--b", str(b)]
    tuple_text = _pushed_tuple(rng, a, b)
    argvs = [["analyze"] + point, ["involution"] + point]
    argvs += [["normalize", "--tuple", tuple_text, "--convention", c] for c in CONVENTIONS]
    argvs.append(_duality_argv(rng, a, b))
    return Op(("exact", a, b), None, argvs,
              check=lambda outputs: _check_exact(a, b, outputs))


def periods_op(a, b, bits=None):
    argv = ["periods", "--a", str(a), "--b", str(b)]
    if bits is None:  # the CLI default, as a user would call it
        bits = 256
    else:
        argv += ["--bits", str(bits)]
    return Op(("periods", a, b, bits), bits, [argv],
              check=lambda outputs: _check_periods(a, b, bits, outputs),
              work="bigint" if bits >= BIGINT_BITS else "interpreter")


def chain_op(level):
    name = f"torsion --d {level}"
    return Op(("chain", level), None, [name.split()],
              check=lambda outputs: _check_pinned(name, outputs))


def surj_op():
    return Op(("example-surj",), None, [["example-surj"]],
              check=lambda outputs: _check_pinned("example-surj", outputs))


def kernel_op(rng, level):
    while True:
        coords = [Fraction(rng.randrange(level), level) for _ in range(4)]
        if any(coords):
            break
    point = torsion.TorsionPoint.make(coords, level)
    order = point.order()

    def library():
        kernel = torsion.span([point])
        kphi = torsion.ker_phi_H(kernel)
        caps = [torsion.factor_intersection(kernel, kphi, f).to_report() for f in "EF"]
        return json.dumps({"ker_phi_H": kphi.to_report(), "factor_intersections": caps})

    return Op(("kernel", level, tuple(coords)), None, library=library,
              check=lambda outputs: _check_kernel(level, order, outputs))


def exact_rounds(seed):
    rng = random.Random(seed)
    while True:
        heights = [LOW_HEIGHT, HIGH_HEIGHT]
        rng.shuffle(heights)
        yield [exact_op(rng, h) for h in heights]


def torsion_rounds(seed):
    rng = random.Random(seed)
    while True:
        ops = [chain_op(n) for n in LEVELS] + [kernel_op(rng, n) for n in LEVELS]
        ops.append(surj_op())
        rng.shuffle(ops)
        yield ops


def periods_rounds(seed):
    rng = random.Random(seed)
    for index in itertools.count():
        ops = []
        for bits, count in PERIOD_BITS.items():
            heights = [LOW_HEIGHT, HIGH_HEIGHT] * (count // 2)
            heights += [(LOW_HEIGHT, HIGH_HEIGHT)[index % 2]] * (count % 2)
            rng.shuffle(heights)
            near = rng.randrange(count) if bits in NEAR_PLAN[index % 4] else None
            for i, height in enumerate(heights):
                a, b = _family_point(rng, height)
                if i == near:
                    distance = rng.choice((1, -1)) * NEAR_DISTANCE
                    a, b = near_locus(a, b, rng.choice(LOCI), distance)
                ops.append(periods_op(a, b, bits))
        rng.shuffle(ops)
        yield ops


ROUNDS = {
    "exact_reports": exact_rounds,
    "torsion_kernels": torsion_rounds,
    "periods_mixed": periods_rounds,
}


def warmup_ops(workload):
    """Untimed ops each worker runs first.  For exact_reports they are the
    seed-0 round that check_exact_pin compares with pins.json."""
    if workload == "exact_reports":
        return next(exact_rounds(0))
    if workload == "torsion_kernels":
        return [kernel_op(random.Random(0), 3)]
    return [periods_op(Fraction(0), Fraction(1), 128)]


def check_exact_pin(op_digests):
    """The outputs of the first exact_reports round at seed 0, byte for byte."""
    if digest(op_digests) != PINS["exact_reports seed 0 round 0"]:
        return "exact_reports seed-0 outputs differ from the pinned digest"
    return None


def probe_ops(seed):
    """Inputs the analytic layer is known to fail on (ROADMAP open item 1):
    the ROADMAP crash repro, points 1e-20 from each locus at 128 and 256 bits,
    and points 1e-10 from each locus at 128 bits.  They run outside the timed
    loop and are reported by outcome."""
    rng = random.Random(seed)
    ops = [periods_op(*ROADMAP_REPRO)]
    for distance, bit_classes in ((Fraction(1, 10**20), (128, 256)), (NEAR_DISTANCE, (128,))):
        for locus in LOCI:
            a, b = near_locus(*_family_point(rng, LOW_HEIGHT), locus, distance)
            ops += [periods_op(a, b, bits) for bits in bit_classes]
    return ops


def pinned_outputs():
    """Digests of the outputs pinned in pins.json, computed from this tree."""
    pins = {}
    op_digests = []
    for op in next(exact_rounds(0)):
        outputs, error = op.execute()
        if error:
            raise RuntimeError(error)
        op_digests.append(digest(outputs))
    pins["exact_reports seed 0 round 0"] = digest(op_digests)
    for argv in [["torsion", "--d", str(n)] for n in LEVELS] + [["example-surj"]]:
        code, out, err = call_cli(argv)
        if code != 0:
            raise RuntimeError(err)
        pins[" ".join(argv)] = digest([out])
    return pins
