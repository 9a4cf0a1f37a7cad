"""BLAS thread policy: ``import hfstab`` pins OpenBLAS to one thread unless
the caller set a count, and starts no thread; report bytes depend neither on
the BLAS count nor on the Hill solve's worker threads."""

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
    # hfstab itself imports nothing, so import a module that loads numpy
    out = python("-c", "import os, hfstab.hill; "
                 f"print(len(os.listdir({str(TASKS)!r})))")
    assert out.strip() == "1"


def test_spectrum_bytes_do_not_depend_on_thread_count(tmp_path):
    # BLAS threads, and the Hill solve's workers: hill._WORKERS is 1 with
    # two BLAS threads on a 2-CPU host, and is forced to 1 in the last run.
    # Fifth-order solves matrices of 129, BW two-component ones of 130, both
    # in stacks of 4
    one_worker = ("import sys; from hfstab import cli, hill; "
                  "hill._WORKERS = 1; sys.exit(cli.main(sys.argv[1:]))")
    for model, amplitude, M, n in (("fifth-order-scalar", "0.02", "64", 129),
                                   ("boussinesq-whitham", "0.01", "32", 130)):
        args = ["spectrum", "--model", model, "--amplitude", amplitude,
                "--M", M, "--mu-count", "20"]
        texts = {}
        for run, threads, entry in (("blas1", "1", ["-m", "hfstab.cli"]),
                                    ("blas2", "2", ["-m", "hfstab.cli"]),
                                    ("worker1", "1", ["-c", one_worker])):
            out = tmp_path / f"{model}-{run}.csv"
            python(*entry, *args, "--out", str(out), threads=threads)
            texts[run] = (out.read_bytes(),
                          Path(f"{out}.bubbles.json").read_bytes())
        assert texts["blas1"][0].count(b"\n") > 20 * n
        assert texts["blas1"] == texts["blas2"] == texts["worker1"]
