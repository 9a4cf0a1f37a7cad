"""BLAS thread policy: ``import hfstab`` pins OpenBLAS to one thread unless
the caller set a count, and report bytes do not depend on the count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TASKS = Path("/proc/self/task")


def python(*args, threads=None, cwd=None):
    """Run a fresh interpreter on ``src/`` with OPENBLAS_NUM_THREADS unset,
    or set to ``threads``; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
def test_import_sets_one_thread_unless_caller_set_it(threads, expected):
    out = python("-c", "import os, hfstab; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'])", threads=threads)
    assert out.strip() == expected


def test_numpy_loads_after_the_setting():
    # OpenBLAS starts its pool when numpy loads, so a setting made after
    # that would leave a second thread running.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas or not TASKS.is_dir():
        pytest.skip("needs OpenBLAS and /proc/self/task")
    out = python("-c", "import os, hfstab; "
                 f"print(len(os.listdir({str(TASKS)!r})))")
    assert out.strip() == "1"


def test_spectrum_bytes_do_not_depend_on_thread_count(tmp_path):
    texts = {}
    for threads in ("1", "2"):
        out = tmp_path / f"spectrum-{threads}.csv"
        python("-m", "hfstab.cli", "spectrum", "--model", "fifth-order-scalar",
               "--amplitude", "0.02", "--M", "64", "--mu-count", "20",
               "--out", str(out), threads=threads)
        texts[threads] = (out.read_bytes(),
                          Path(f"{out}.bubbles.json").read_bytes())
    assert texts["1"][0].count(b"\n") > 20 * 129
    assert texts["1"] == texts["2"]
