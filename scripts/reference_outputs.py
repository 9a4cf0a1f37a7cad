#!/usr/bin/env python3
"""Write the output of every benchmark invocation to one directory.

Runs, one fresh interpreter at a time and from this checkout's sources,
every invocation of the four workloads of ``perfbench/workloads.py`` for
one seed, plus ``spectrum --model sine-gordon`` and ``curves --model
water-waves`` at their defaults.  The outputs of two checkouts can then be
compared with one ``diff -r``; pin OPENBLAS_NUM_THREADS=1 on both, so that
every eigensolve runs the same arithmetic:

    OPENBLAS_NUM_THREADS=1 python3 scripts/reference_outputs.py out --seed 101
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import bench       # noqa: E402
import workloads   # noqa: E402


def commands(outdir: Path, seed: int) -> tuple[dict, list[list[str]]]:
    """(files to write first, commands to run) for outputs under ``outdir``."""
    files, cmds = {}, []
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, seed, outdir)
        files.update(wl.files)
        cmds += [bench.command(inv) for inv in wl.invocations]
    cli = [sys.executable, "-m", "hfstab.cli"]
    cmds += [[*cli, "spectrum", "--model", "sine-gordon",
              "--out", str(outdir / "sine-gordon.csv")],
             [*cli, "curves", "--model", "water-waves",
              "--out", str(outdir / "curves-water-waves.csv")]]
    return files, cmds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()

    outdir = args.outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    files, cmds = commands(outdir, args.seed)
    for file, text in files.items():
        Path(file).write_text(text)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for cmd in cmds:
        print(" ".join(cmd[1:]), flush=True)
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
