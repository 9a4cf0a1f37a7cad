"""hfstab benchmark: screening and Hill-verification workloads.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout.  Every program invocation is a
fresh interpreter with ``PYTHONPATH=src``, one at a time.  Every output
is checked.  The last stdout line is the JSON result (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``); the line before
it holds the run's metadata.  See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from launcher import Launcher

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("screen", "screen-dsl", "spectrum", "bubble-scan")


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hfstab" / "cli.py").is_file():
        print(f"no hfstab sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    # Start the launcher while this process is still small (see launcher.py).
    launcher = Launcher(ROOT, child_env())
    try:
        import bench
        meta, res = bench.bench(launcher, args.workload, args.seed,
                                args.seconds, bool(args.trace), tmp)
    finally:
        launcher.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
