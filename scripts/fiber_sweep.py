#!/usr/bin/env python3
"""Random sweep over the parameter domain: report the deck-involution image
and confirm that both unordered j-invariant pairs agree across each fibre.

Usage: python3 scripts/fiber_sweep.py [--samples N] [--seed S] [--max-height H]
"""

import argparse
import random
import sys

from kleinprym.acceptance import random_params
from kleinprym.moduli import phi_params, prym_fiber_invariants


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-height", type=int, default=50)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    mismatches = 0
    for _ in range(args.samples):
        p = random_params(rng, args.max_height, require_phi=True)
        q = phi_params(p)
        match = prym_fiber_invariants(p) == prym_fiber_invariants(q)
        mismatches += not match
        flag = "ok" if match else "MISMATCH"
        print(f"({p.a}, {p.b}) -> ({q.a}, {q.b})  j-pairs {flag}")
    print(f"\n{args.samples - mismatches}/{args.samples} fibres consistent")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
