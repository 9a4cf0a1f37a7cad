#!/usr/bin/env python3
"""Run the necessary-condition screening on every built-in model and print
a verdict table.

Example:
    python3 scripts/screen_models.py --n-max 6
"""

import argparse
import sys

from hfstab.krein import run_pipeline
from hfstab.models import BUILTIN_MODELS, make_model


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--N", type=int, default=1)
    args = ap.parse_args()

    header = f"{'model':24s} {'collisions':>10s} {'opposite':>8s}  overall"
    print(header)
    print("-" * len(header))
    for name in sorted(BUILTIN_MODELS):
        report = run_pipeline(make_model(name), N=args.N, n_max=args.n_max)
        non_origin = report.counts["non_origin"]
        opposite = sum(e.signature_product < 0 for e in report.events)
        print(f"{name:24s} {non_origin:10d} {opposite:8d}  {report.overall}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
