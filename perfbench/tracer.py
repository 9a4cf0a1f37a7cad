"""Out-of-program span recorder for the benchmark's traced runs.

Run as a script it executes one program invocation in this interpreter
with probes attached, then writes the spans and counters as JSON:

    PYTHONPATH=src:perfbench python3 perfbench/tracer.py out.json cli \
        analyze --model water-waves --n-max 30 --out r.json

The second argument names the entry point: ``cli`` (``hfstab.cli.main``)
or ``script`` (``bubble_scan.main``); the rest are its arguments.

A probe replaces a public function of ``hfstab`` (or of numpy) by a
wrapper, at every module that holds a reference to it, the bubble-scan
script included.  ``span`` probes record (name, layer, start, end,
parent).  ``timer`` probes are for functions called thousands of times:
they only add calls and seconds to counters, and their time to the
enclosing span so that self times stay exact.  A probe whose target no longer exists is listed
in ``absent`` and its metrics are left out; nothing crashes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

EIG_FLOP_PER_N3 = 10.0   # Hessenberg QR, eigenvalues only (Golub & Van Loan)
COMPLEX_FLOP_FACTOR = 4.0


class Tracer:
    """Spans and counters of one invocation, kept in memory."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._instrumented: set[int] = set()

    def begin(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": len(self.spans), "name": name, "layer": layer,
                           "start": self.clock(), "end": None,
                           "parent": parent, "nested": {}})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = self.clock()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self.stack)

    def _probe_failed(self, name: str) -> None:
        # the target's arguments or result changed shape: report, don't crash
        if name not in self.absent:
            self.absent.append(name)

    def span(self, fn, name, layer, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if on_result is None:
                return result
            try:
                return on_result(self, result, args, kwargs)
            except (AttributeError, KeyError, IndexError, TypeError):
                self._probe_failed(name)
                return result
        return wrapper

    def timer(self, fn, name, layer, within=None, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is not None and not self.inside(within):
                return fn(*args, **kwargs)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                self.counters[name + "_calls"] += 1
                self.counters[name + "_s"] += dt
                if on_call is not None:
                    try:
                        on_call(self, args)
                    except (AttributeError, IndexError, TypeError):
                        self._probe_failed(name)
                if self.stack:
                    nested = self.spans[self.stack[-1]]["nested"]
                    nested[layer] = nested.get(layer, 0.0) + dt
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "absent": self.absent}


# --------------------------------------------------------------------------
# Probes

@dataclass(frozen=True)
class Probe:
    target: str              # "module:attribute"
    name: str                # span name or counter prefix
    layer: str
    kind: str = "span"       # "span" or "timer"
    on_result: Callable | None = None
    within: str | None = None
    on_call: Callable | None = None


def _instrument_model(tr: Tracer, model, args, kwargs):
    """Wrap every symbol callable of a built ModelSpec in a timer."""
    if id(model) in tr._instrumented or not dataclasses.is_dataclass(model):
        return model
    wrap = lambda f: f if f is None else tr.timer(f, "models.symbol", "models")
    changes = {"branches": tuple(dataclasses.replace(b, evaluator=wrap(b.evaluator))
                                 for b in model.branches)}
    for field in ("kernel_symbol", "a_symbol", "b_symbol", "c_symbol",
                  "c2_symbol"):
        if hasattr(model, field):
            changes[field] = wrap(getattr(model, field))
    out = dataclasses.replace(model, **changes)
    tr._instrumented.add(id(out))
    return out


def mode_tuples(branches: int, n_max: int) -> int:
    """Number of mode tuples the collision scan visits, by formula."""
    ns = 2 * n_max + 1
    return ns * (ns - 1) // 2 * branches ** 2 + (ns if branches == 2 else 0)


def _collisions_result(tr: Tracer, events, args, kwargs):
    model = args[0] if args else kwargs["model"]
    n_max = args[2] if len(args) > 2 else kwargs["n_max"]
    tr.counters["collisions.mode_tuples"] += mode_tuples(len(model.branches),
                                                         n_max)
    tr.counters["collisions.events"] += len(events)
    return events


def _spectrum_result(tr: Tracer, spectrum, args, kwargs):
    tr.counters["hill.slices"] += len(spectrum.slices)
    if spectrum.slices:
        n = spectrum.slices[0][1].size
        tr.counters["hill.matrix_n"] = max(tr.counters["hill.matrix_n"], n)
    return spectrum


def _text_bytes(tr: Tracer, text, args, kwargs):
    tr.counters["report.bytes"] += len(text.encode())
    return text


def _eig_flops(tr: Tracer, args):
    a = args[0]
    n = a.shape[-1]
    factor = COMPLEX_FLOP_FACTOR if a.dtype.kind == "c" else 1.0
    tr.counters["hill.eig_gflop_computed"] += EIG_FLOP_PER_N3 * n ** 3 * factor / 1e9


PROBES = (
    Probe("hfstab.config:load_config", "config.load_config", "config"),
    Probe("hfstab.config:apply_flags", "config.apply_flags", "config"),
    Probe("hfstab.config:build_model", "config.build_model", "config",
          on_result=_instrument_model),
    Probe("hfstab.models:make_model", "config.make_model", "config",
          on_result=_instrument_model),
    Probe("hfstab.models:model_from_config", "dsl.model_from_config", "dsl",
          on_result=_instrument_model),
    Probe("hfstab.collisions:find_collisions", "collisions.find", "collisions",
          on_result=_collisions_result),
    Probe("hfstab.collisions:collision_residual", "collisions.residual",
          "collisions", kind="timer"),
    Probe("hfstab.krein:run_pipeline", "krein.pipeline", "krein"),
    Probe("hfstab.krein:signature_product", "krein.signature", "krein",
          kind="timer"),
    Probe("hfstab.waves:solve_wave_collocation", "waves.solve", "waves"),
    Probe("numpy.linalg:solve", "waves.newton", "waves", kind="timer",
          within="waves.solve"),
    Probe("hfstab.hill:full_spectrum", "hill.spectrum", "hill",
          on_result=_spectrum_result),
    Probe("hfstab.hill:assemble", "hill.assemble", "hill", kind="timer"),
    Probe("numpy.linalg:eigvals", "hill.eig", "hill", kind="timer",
          within="hill.spectrum", on_call=_eig_flops),
    Probe("numpy.linalg:eig", "hill.eig", "hill", kind="timer",
          within="hill.spectrum", on_call=_eig_flops),
    Probe("hfstab.hill:detect_bubbles", "hill.bubbles", "hill"),
    Probe("hfstab.hill:spectrum_to_csv_rows", "report.rows", "report"),
    Probe("hfstab.report:csv_lines", "report.csv", "report",
          on_result=_text_bytes),
    Probe("hfstab.report:json_dumps", "report.json", "report",
          on_result=_text_bytes),
)


HOLDERS = ("hfstab", "bubble_scan")   # modules searched for references


def attach(tr: Tracer, probes=PROBES) -> None:
    """Install each probe at its module and at every module that imported
    it (``from x import f`` binds a second name to the same function)."""
    for probe in probes:
        mod_name, attr = probe.target.split(":")
        try:
            module = importlib.import_module(mod_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            tr.absent.append(probe.name)
            continue
        if probe.kind == "span":
            wrapped = tr.span(original, probe.name, probe.layer, probe.on_result)
        else:
            wrapped = tr.timer(original, probe.name, probe.layer, probe.within,
                               probe.on_call)
        setattr(module, attr, wrapped)
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith(HOLDERS):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _run(tr: Tracer, entry: str, argv: list[str]) -> int:
    sid = tr.begin("import", "import")
    try:
        importlib.import_module("hfstab.cli")
        if entry == "script":
            importlib.import_module("bubble_scan")
    finally:
        tr.end(sid)
    attach(tr)
    main = sys.modules["hfstab.cli" if entry == "cli" else "bubble_scan"].main
    sid = tr.begin(entry + ".main", entry)
    try:
        return main(argv)
    finally:
        tr.end(sid)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or argv[1] not in ("cli", "script"):
        print("usage: tracer.py SPANS_JSON {cli,script} ARGS...",
              file=sys.stderr)
        return 2
    tr = Tracer()
    try:
        code = _run(tr, argv[1], argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(tr.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
