#!/usr/bin/env python3
"""Full demonstration run on the fifth-order scalar model.

Locates the zero-amplitude eigenvalue collisions, classifies their Krein
signatures, builds a small-amplitude wave by Newton continuation, and then
computes the Hill spectrum on a refined Floquet grid.  Opposite-signature
collisions open instability bubbles; the equal-signature collision does
not.  Outputs a CSV of spectrum points and a JSON bubble report.

Example:
    python3 scripts/fifth_order_bubbles.py --amplitude 0.02 --out spectrum.csv
"""

import argparse
import sys

from hfstab import hill
from hfstab.krein import screen
from hfstab.models import bifurcation_speed, make_model
from hfstab.report import csv_blocks, json_dumps
from hfstab.waves import solve_wave_collocation


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--beta", type=float, default=0.25)
    ap.add_argument("--amplitude", type=float, default=0.02)
    ap.add_argument("--modes", type=int, default=32,
                    help="cosine modes for the wave solve")
    ap.add_argument("--M", type=int, default=32, help="Hill truncation")
    ap.add_argument("--mu-count", type=int, default=400)
    ap.add_argument("--refine-factor", type=int, default=150)
    ap.add_argument("--out", default="fifth_order_spectrum.csv")
    args = ap.parse_args()

    model = make_model("fifth-order-scalar",
                       {"alpha": args.alpha, "beta": args.beta})
    c0 = bifurcation_speed(model, 1, 1)
    events = [e for e in screen(model, c0, 3) if not e.at_origin]
    print(f"speed c0 = {c0:.6f}; {len(events)} non-origin collisions:")
    for e in events:
        tag = "opposite" if e.signature_product < 0 else "same"
        print(f"  modes ({e.n1},{e.n2})  mu = {e.mu:+.7f}  "
              f"Im lambda = {e.lam.imag:.7f}  signatures: {tag}")

    wave = solve_wave_collocation(model, args.amplitude, M=args.modes,
                                  steps=4)
    print(f"wave: amplitude {wave.amplitude:g}, speed {wave.c:.8f}")

    # each collision mu and its mirror get a window (build_mu_grid)
    grid = hill.MuGridSpec(count=args.mu_count,
                           windows=tuple(e.mu for e in events),
                           refine_factor=args.refine_factor)
    spectrum = hill.full_spectrum(model, wave, grid, args.M)
    bubbles = hill.detect_bubbles(spectrum, predictions=events)

    with open(args.out, "w") as fh:
        fh.writelines(csv_blocks(["mu", "re_lambda", "im_lambda"],
                                 hill.spectrum_to_csv_rows(spectrum)))
    report = {"bubbles": [b.to_dict() for b in bubbles],
              "max_re_lambda": spectrum.max_real_part()}
    with open(args.out + ".bubbles.json", "w") as fh:
        fh.write(json_dumps(report))

    print(f"{len(bubbles)} bubble(s); spectrum in {args.out}")
    for b in bubbles:
        print(f"  center Im = {b.center.imag:+.6f}  growth = "
              f"{b.max_growth:.3e}  distance to prediction = "
              f"{b.event_distance:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
