"""The traced run: wrappers around kleinprym's public functions, installed
from the benchmark's files and removed afterwards; the program is not edited.

A wrapped function records a span [name, start, end, parent, op, fraction
allocations, label] in memory.  Counting wrappers only add to a counter.
`Fraction.__new__` is counted and charged to the innermost open span.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import sys
import time
from fractions import Fraction

import mpmath

from workloads import LEVELS, PERIOD_BITS

# (span name, module, attribute); a dotted attribute is a method
SPANS = (
    ("cli", "kleinprym.cli", "main"),
    ("algebra.gcd", "kleinprym.algebra", "gcd"),
    ("algebra.resultant", "kleinprym.algebra", "resultant"),
    ("algebra.is_squarefree", "kleinprym.algebra", "is_squarefree"),
    ("algebra.substitute_rational_map", "kleinprym.algebra", "substitute_rational_map"),
    ("family.curve_equation", "kleinprym.family", "curve_equation"),
    ("family.verify_quotient_identity", "kleinprym.family", "verify_quotient_identity"),
    ("family.fixed_point_count", "kleinprym.family", "fixed_point_count"),
    ("family.j_invariant", "kleinprym.family", "j_invariant"),
    ("family.curve_report", "kleinprym.family", "curve_report"),
    ("projline.normalize_tuple", "kleinprym.projline", "normalize_tuple"),
    ("moduli.phi_consistency_report", "kleinprym.moduli", "phi_consistency_report"),
    ("moduli.prym_fiber_invariants", "kleinprym.moduli", "prym_fiber_invariants"),
    ("moduli.moduli_report", "kleinprym.moduli", "moduli_report"),
    ("isogeny.velu_quotient", "kleinprym.isogeny", "velu_quotient"),
    ("isogeny.dual_nonisomorphism_check", "kleinprym.isogeny", "dual_nonisomorphism_check"),
    ("torsion.span", "kleinprym.torsion", "span"),
    ("torsion.perp", "kleinprym.torsion", "perp"),
    ("torsion.project_to_quotient", "kleinprym.torsion", "project_to_quotient"),
    ("torsion.factor_intersection", "kleinprym.torsion", "factor_intersection"),
    ("torsion.duality_chain", "kleinprym.torsion", "duality_chain"),
    ("torsion.example_surj_report", "kleinprym.torsion", "example_surj_report"),
    ("periods.report", "kleinprym.periods", "periods_report"),
    ("periods.elliptic_periods_agm", "kleinprym.periods", "elliptic_periods_agm"),
    ("periods.optimal_agm", "kleinprym.periods", "optimal_agm"),
    ("periods.analytic_j", "kleinprym.periods", "analytic_j"),
    ("periods.matrix", "kleinprym.periods", "prym_period_matrix"),
    ("periods.matrix", "kleinprym.periods", "riemann_check"),
    ("periods.matrix", "kleinprym.periods", "product_to_prym_reduction"),
    ("periods.polyroots", "mpmath", "polyroots"),
)

# (counter, module, attribute, amount of one call from its arguments)
COUNTERS = (
    ("algebra.poly_mul.calls", "kleinprym.algebra", "Polynomial.__mul__", lambda args: 1),
    ("algebra.poly_mul.calls", "kleinprym.algebra", "Polynomial.__rmul__", lambda args: 1),
    ("algebra.divmod.calls", "kleinprym.algebra", "Polynomial.divmod", lambda args: 1),
    ("torsion.points_enumerated", "kleinprym.torsion", "full_group", lambda args: args[0] ** 4),
    ("torsion.coset_additions", "kleinprym.torsion", "project_to_quotient",
     lambda args: len(args[1]) * len(args[0].elements)),
    ("torsion.coset_additions", "kleinprym.torsion", "QuotientSubgroup.project",
     lambda args: len(args[0].kernel.elements)),
)

LABELS = {"torsion.duality_chain": lambda args: args[0]}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.op = None

    def span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        label = LABELS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, 0,
                      label(args) if label else None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def count_wrapper(self, name, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += amount(args)
            return fn(*args, **kwargs)
        return wrapper

    def counting_new(self, new):
        spans, stack = self.spans, self.stack

        def counting_new(cls, *args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            return new(cls, *args, **kwargs)
        return staticmethod(counting_new)

    def write(self, path, op_tags):
        with open(path, "w") as fh:
            for name, start, end, parent, op, allocs, label in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": op_tags.get(op),
                                     "fraction_allocs": allocs, "label": label}) + "\n")


def _bindings(module_name, attribute):
    """(owner, attribute name, current value) for every place a module of
    kleinprym binds the object, or the class attribute for a method."""
    module = importlib.import_module(module_name)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        cls = getattr(module, cls_name)
        return [(cls, method, cls.__dict__[method])]
    if module_name == "mpmath":
        return [(module, attribute, getattr(module, attribute))]
    original = getattr(module, attribute)
    return [(mod, key, value)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "kleinprym" or mod_name.startswith("kleinprym."))
            for key, value in list(vars(mod).items()) if value is original]


@contextlib.contextmanager
def instrument():
    """Install every wrapper for the duration of the block; yields the Tracer."""
    tracer = Tracer()
    saved = []

    def replace(owner, key, value, new):
        saved.append((owner, key, value))
        setattr(owner, key, new)

    try:
        for name, module_name, attribute, amount in COUNTERS:
            for owner, key, value in _bindings(module_name, attribute):
                replace(owner, key, value, tracer.count_wrapper(name, value, amount))
        for name, module_name, attribute in SPANS:
            for owner, key, value in _bindings(module_name, attribute):
                replace(owner, key, value, tracer.span_wrapper(name, value))
        new = Fraction.__dict__["__new__"]
        replace(Fraction, "__new__", new, tracer.counting_new(new.__func__))
        yield tracer
    finally:
        for owner, key, value in reversed(saved):
            setattr(owner, key, value)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

SELF_MS = (
    "cli", "algebra.is_squarefree", "algebra.substitute_rational_map",
    "family.curve_equation", "family.verify_quotient_identity",
    "family.fixed_point_count", "family.j_invariant", "projline.normalize_tuple",
    "moduli.phi_consistency_report", "moduli.prym_fiber_invariants",
    "isogeny.velu_quotient", "isogeny.dual_nonisomorphism_check", "torsion.span",
    "torsion.perp", "torsion.project_to_quotient", "torsion.factor_intersection",
    "periods.matrix",
)
CALLS = ("algebra.gcd", "algebra.resultant", "family.curve_equation")
ALLOC_LAYERS = ("algebra", "family", "torsion")
PER_BITS = ("polyroots", "optimal_agm", "elliptic_periods_agm", "analytic_j")


def layer_metrics(tracer, op_tags):
    """Per-layer metrics of a traced pass; op_tags maps op id to its tag.

    Self time, calls, allocations and counts are per op of the pass; the
    periods.bB metrics are per op at B bits; duality_chain.dN.ms is the mean
    wall time of one duality_chain(N) call.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = collections.Counter()
    calls = collections.Counter()
    allocs = collections.Counter()
    chain = collections.defaultdict(list)
    for i, (name, start, end, parent, op, n_allocs, label) in enumerate(spans):
        key = name
        if name.startswith("periods.") and name[8:] in PER_BITS:
            key = f"periods.b{op_tags.get(op)}.{name[8:]}"
        self_s[key] += end - start - child[i]
        calls[key] += 1
        allocs[name.split(".")[0]] += n_allocs
        if name == "torsion.duality_chain":
            chain[label].append(end - start)

    n_ops = len(op_tags)
    ops_at = collections.Counter(op_tags.values())
    metrics = {}
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = 1000 * self_s[name] / n_ops
    for name in CALLS:
        metrics[f"{name}.calls"] = calls[name] / n_ops
    for name in ("algebra.poly_mul.calls", "algebra.divmod.calls",
                 "torsion.coset_additions", "torsion.points_enumerated"):
        metrics[name] = tracer.counts[name] / n_ops
    for layer in ALLOC_LAYERS:
        metrics[f"{layer}.fraction_allocs"] = allocs[layer] / n_ops
    for level in LEVELS:
        times = chain[level]
        metrics[f"torsion.duality_chain.d{level}.ms"] = (
            1000 * sum(times) / len(times) if times else 0.0)
    for bits in PERIOD_BITS:
        for fn in PER_BITS:
            key = f"periods.b{bits}.{fn}"
            metrics[f"{key}.self_ms"] = (
                1000 * self_s[key] / ops_at[bits] if ops_at[bits] else 0.0)
    return metrics
