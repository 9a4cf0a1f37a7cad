"""Command-line front end.

Commands
--------
analyze   run the full necessary-condition pipeline, emit a JSON report
wave      construct a traveling wave by Newton continuation, emit JSON
spectrum  Hill spectrum over a Floquet grid refined around every predicted
          collision off the origin, emit CSV plus a bubble report
curves    secant-curve data tables (and a depth trace for water waves)

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  An
error's class decides its code: ``models.NumericalError``, numpy's
``LinAlgError`` and ``MemoryError`` (an array too large to allocate) exit
3; ``config.ConfigError``, ``models.ModelError`` and ``ValueError`` exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterable

import numpy as np

from . import krein
from .collisions import find_collisions, secant_curve_data, \
    trace_first_collision_vs_depth
from .config import ConfigError, RunConfig, apply_flags, build_model, \
    load_config, _FLAG_PARAMS, _SECTIONS
from .models import ModelError, NumericalError, TravelingWave, \
    bifurcation_speed
from .report import csv_blocks, json_dumps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

WAVE_FILE_TOL = 1e-8   # largest traveling-equation residual of a --wave file


def _flag(p: argparse.ArgumentParser, name: str, help: str) -> None:
    """``--name``, ``_`` written ``-``, of the type of its RunConfig field."""
    p.add_argument("--" + name.replace("_", "-"), dest=name, help=help,
                   type=type(getattr(RunConfig, name)))


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="built-in model id")
    for name in _FLAG_PARAMS:
        p.add_argument(f"--{name}", type=float, help=f"model parameter {name}")
    _flag(p, "N", "bifurcation harmonic")
    _flag(p, "n_max", "mode index bound for the collision search")
    p.add_argument("--out", dest="output", metavar="OUT",
                   help="output path (default stdout)")
    p.add_argument("--config", help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfstab",
        description="High-frequency instability screening for periodic "
                    "traveling waves of dispersive Hamiltonian models.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, what in (("analyze", "full necessary-condition pipeline"),
                       ("wave", "traveling-wave construction"),
                       ("spectrum", "Hill spectrum and bubble report"),
                       ("curves", "secant-curve data tables")):
        p[name] = sub.add_parser(name, help=what)
        _common_flags(p[name])
    for name in ("wave", "spectrum"):
        _flag(p[name], "amplitude", "wave amplitude, its first coefficient")
        _flag(p[name], "modes", "cosine modes of the wave solve")
        _flag(p[name], "steps", "continuation increments")
        _flag(p[name], "mean", "pinned mean value")
    p["wave"].add_argument("--force", action="store_true",
                           help="continue from an ill-posed BW mean")
    p["spectrum"].add_argument("--wave", dest="wave_file",
                               help="wave JSON artifact")
    _flag(p["spectrum"], "mu_count", "Floquet grid size")
    _flag(p["spectrum"], "M", "Hill truncation")
    return parser


def _write(outputs: dict[str, Iterable[str]], path: str | None) -> None:
    """Write a command's outputs ``{suffix: parts}``: the strings ``parts``
    to ``path + suffix``, one at a time, or all to stdout if path is None.

    Every file is opened before any is written.  A path that cannot be
    opened is a ConfigError, and the files already opened are removed, so a
    refused run leaves no partial output."""
    if path is None:
        for parts in outputs.values():
            sys.stdout.writelines(parts)
        return
    with contextlib.ExitStack() as stack:
        files = []
        for suffix in outputs:
            try:
                files.append(stack.enter_context(open(path + suffix, "w")))
            except OSError as exc:
                stack.close()
                for fh in files:
                    os.remove(fh.name)
                raise ConfigError(f"cannot write output file: {exc}") from exc
        for fh, parts in zip(files, outputs.values()):
            fh.writelines(parts)


def _load(args) -> tuple[RunConfig, object]:
    cfg = apply_flags(load_config(getattr(args, "config", None)), args)
    return cfg, build_model(cfg)


# --------------------------------------------------------------------------
# Commands

def cmd_analyze(args) -> int:
    cfg, model = _load(args)
    report = krein.run_pipeline(model, N=cfg.N, n_max=cfg.n_max)
    _write({"": [json_dumps(report.to_dict())]}, cfg.output)
    return EXIT_OK


def _first_harmonic(cfg) -> None:
    """Waves are built, and read, on the first harmonic only."""
    if cfg.N != 1:
        raise ConfigError(f"a wave is built at N = 1 only, got N = {cfg.N}")


def _solve_wave(cfg, model, force: bool) -> TravelingWave:
    from . import waves
    _first_harmonic(cfg)
    return waves.solve_wave_collocation(
        model, cfg.amplitude, M=cfg.modes, steps=cfg.steps, mean=cfg.mean,
        force=force)


def cmd_wave(args) -> int:
    from . import waves
    cfg, model = _load(args)
    wave = _solve_wave(cfg, model, args.force)
    data = wave.to_dict()
    data["residual"] = waves.wave_residual(model, wave)
    _write({"": [json_dumps(data)]}, cfg.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from . import hill, waves
    cfg, model = _load(args)
    if args.wave_file is not None:
        _first_harmonic(cfg)
        given = [f"--{f}" for f in _SECTIONS["wave"]
                 if getattr(args, f) is not None]
        if given:
            raise ConfigError(f"--wave reads a solved wave: drop {given}")
        try:
            with open(args.wave_file) as fh:
                wave = TravelingWave.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ConfigError(f"cannot read wave file: {exc}") from exc
        if wave.model != model.name:
            raise ConfigError(
                f"wave file is for model {wave.model!r}, not {model.name!r}")
        residual = 0.0 if wave.is_zero else waves.wave_residual(model, wave)
        if residual > WAVE_FILE_TOL:
            raise ConfigError(f"wave file does not solve {model.name!r}: its "
                              f"traveling-equation residual is {residual:.3g}")
    elif cfg.amplitude == 0.0:
        if cfg.mean != 0.0:
            raise ConfigError("the zero-amplitude wave has mean 0, got "
                              f"wave.mean = {cfg.mean!r}")
        wave = hill.zero_wave(model, bifurcation_speed(model, 1, cfg.N))
    else:
        wave = _solve_wave(cfg, model, force=False)

    # The theory predicts bubbles only at the collisions off the origin at
    # the bifurcation speed c0.  The wave's speed c0 + O(eps^2) splits the
    # origin collision into near-origin events, so an event gets a window
    # and bubble links only when its modes collide off the origin at c0.  It
    # keeps its mu at the wave's speed: a window at the c0 mu can miss a
    # narrow bubble.
    modes = lambda e: (e.n1, e.l1, e.n2, e.l2)
    c0 = bifurcation_speed(model, 1, cfg.N)
    genuine = {modes(e) for e in find_collisions(model, c0, cfg.n_max)
               if not e.at_origin}
    predictions = [e for e in krein.screen(model, wave.c, cfg.n_max)
                   if modes(e) in genuine]
    # build_mu_grid adds each window's mirror
    windows = tuple(e.mu for e in predictions)
    grid = hill.MuGridSpec(count=cfg.mu_count, windows=windows)
    spectrum = hill.full_spectrum(model, wave, grid, cfg.M)
    bubbles = hill.detect_bubbles(spectrum, predictions=predictions)

    bubble_report = {
        "model": model.name,
        "M": cfg.M,
        "amplitude": wave.amplitude,
        "max_re_lambda": spectrum.max_real_part(),
        "bubbles": [b.to_dict() for b in bubbles],
    }
    _write({"": csv_blocks(["mu", "re_lambda", "im_lambda"],
                           hill.spectrum_to_csv_rows(spectrum)),
            ".bubbles.json": [json_dumps(bubble_report)]}, cfg.output)
    return EXIT_OK


def cmd_curves(args) -> int:
    cfg, model = _load(args)
    c = bifurcation_speed(model, 1, cfg.N)
    k_grid = np.linspace(-0.5, 0.5, 201)
    rows = secant_curve_data(model, c, range(-3, 4), k_grid)
    texts = {"": csv_blocks(["l", "n", "k", "Omega"], rows)}
    if model.name == "water-waves":
        h_grid = np.logspace(np.log10(0.5), 2.0, 25)
        trace = trace_first_collision_vs_depth(
            model.params["g"], h_grid, n_max=max(cfg.n_max, 3))
        texts[".depth.csv"] = csv_blocks(["h", "im_lambda"], trace)
    _write(texts, cfg.output)
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "wave": cmd_wave,
    "spectrum": cmd_spectrum,
    "curves": cmd_curves,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (NumericalError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ModelError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
