"""Smoke test: each demo script in ``scripts/`` runs to exit 0 and prints its
summary, so a library API change cannot break one silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, name, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_screen_models(tmp_path):
    lines = run_script(tmp_path, "screen_models.py", "--n-max", "3")
    assert lines[0].split() == ["model", "collisions", "opposite", "overall"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert len(rows) == 10
    assert rows["fifth-order-scalar"] == ["3", "2", "HF-instability-possible"]
    assert rows["kdv"] == ["0", "0", "HF-instability-excluded"]


def test_fifth_order_bubbles(tmp_path):
    lines = run_script(tmp_path, "fifth_order_bubbles.py", "--mu-count", "50",
                       "--refine-factor", "150", "--out", "spec.csv")
    assert "2 bubble(s); spectrum in spec.csv" in lines
    centers = sorted(float(line.split()[3]) for line in lines
                     if line.strip().startswith("center Im"))
    assert centers == [pytest.approx(-0.2278, abs=1e-4),
                       pytest.approx(0.2278, abs=1e-4)]
    assert (tmp_path / "spec.csv.bubbles.json").exists()


def test_every_script_has_a_smoke_case():
    # scripts/NAME.py is covered by test_NAME above
    scripts = {path.stem for path in (ROOT / "scripts").glob("*.py")}
    missing = sorted(s for s in scripts if f"test_{s}" not in globals())
    assert not missing, f"scripts without a smoke test: {missing}"
