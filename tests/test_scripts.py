"""Smoke test: each demo script in ``scripts/`` runs to exit 0 and prints its
summary, so a library API change cannot break one silently."""

import importlib.util
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


def test_reference_outputs(tmp_path, monkeypatch):
    # the command list only: running it runs every benchmark workload
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "scripts" / "reference_outputs.py"
    spec = importlib.util.spec_from_file_location("reference_outputs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    files, cmds = script.commands(tmp_path, 101)
    outs = [Path(cmd[cmd.index("--out") + 1]) for cmd in cmds]
    assert {out.parent for out in outs} == {tmp_path}
    assert len(set(outs)) == len(outs) == 5 + 3 + 2 + 1 + 2
    assert sorted(p.name for p in files) == [
        f"dsl-{m}.config.json" for m in ("boussinesq-whitham",
                                         "fifth-order-scalar", "water-waves")]
    assert all(Path(p).parent == tmp_path for p in files)
    cli = [sys.executable, "-m", "hfstab.cli"]
    assert [cmd[3] for cmd in cmds if cmd[:3] == cli] == \
        ["analyze"] * 8 + ["spectrum"] * 3 + ["curves"]
    scan = [cmd for cmd in cmds if cmd[:3] != cli]
    assert [Path(cmd[1]).name for cmd in scan] == ["bubble_scan.py"]
    assert cmds[-2:] == [
        [*cli, "spectrum", "--model", "sine-gordon",
         "--out", str(tmp_path / "sine-gordon.csv")],
        [*cli, "curves", "--model", "water-waves",
         "--out", str(tmp_path / "curves-water-waves.csv")]]


def test_every_script_has_a_smoke_case():
    # scripts/NAME.py is covered by test_NAME above
    scripts = {path.stem for path in (ROOT / "scripts").glob("*.py")}
    missing = sorted(s for s in scripts if f"test_{s}" not in globals())
    assert not missing, f"scripts without a smoke test: {missing}"
