"""The fifth-order bubble scan of acceptance criterion 11, as a program.

Runs the same public calls as the acceptance test, with the default
``threads``: collisions to n_max 3 at the bifurcation speed, a Newton wave
with M=32 in 4 steps, a Floquet grid of 400 points refined 150-fold around
every mirrored collision mu, a Hill spectrum at M=32 and bubble detection.
Writes the spectrum CSV to ``--out`` and the bubble report to
``<out>.bubbles.json``.

    PYTHONPATH=src python3 perfbench/bubble_scan.py --amplitude 0.02 --out s.csv
"""

from __future__ import annotations

import argparse
import sys

from hfstab import collisions, hill, krein, models, report, waves


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--amplitude", type=float, default=0.02)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    model = models.make_model("fifth-order-scalar")
    c0 = models.bifurcation_speed(model, 1, 1)
    events = [e for e in collisions.find_collisions(model, c0, 3)
              if not e.at_origin]
    for e in events:
        e.signature_product = krein.signature_product(model, e, c0)
    wave = waves.solve_wave_collocation(model, args.amplitude, M=32, steps=4)
    windows = tuple(sorted({e.mu for e in
                            collisions.mirror_events(model, events)}))
    grid = hill.MuGridSpec(count=400, windows=windows, refine_factor=150)
    spectrum = hill.full_spectrum(model, wave, grid, 32)
    bubbles = hill.detect_bubbles(spectrum, predictions=events)

    csv_text = report.csv_lines(["mu", "re_lambda", "im_lambda"],
                                hill.spectrum_to_csv_rows(spectrum))
    bubble_text = report.json_dumps({
        "model": model.name, "M": 32, "amplitude": wave.amplitude,
        "max_re_lambda": spectrum.max_real_part(),
        "bubbles": [b.to_dict() for b in bubbles]})
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    with open(args.out + ".bubbles.json", "w") as fh:
        fh.write(bubble_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
