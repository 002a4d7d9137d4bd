"""Span tracing of the helimag layers, recorded from outside the package.

Each traced function is wrapped and the wrapper is bound under the same name
in every helimag module that imported the original, so calls between modules
(for example ``helimag.optimize.energy_H``) are seen as well as calls from
the benchmark.  Spans carry name, start, end, parent span and job id; they
stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("lattice", "chirality", "energy", "continuum", "recovery", "optimize", "cli")

# public functions per layer; each becomes a span "<layer>.<function>"
FUNCTIONS = {
    "lattice": ("index_mask",),
    "chirality": ("transform", "vorticity"),
    "energy": ("energy_H", "energy_H_1d", "mm_decomposition"),
    "continuum": (
        "validate_mesh", "jump_set", "total_variations", "limit_energy", "build_example",
    ),
    "recovery": ("extend_potential", "build_recovery", "pick_width"),
    "optimize": (
        "two_sided_bc", "chain_bc", "linear_init", "profile_init",
        "energy_gradient", "minimize_H",
    ),
    "cli": ("run",),
}

# (layer, class, method, span name); the field JSON codecs share one span name
METHODS = (
    ("lattice", "SpinField", "to_json", "lattice.json"),
    ("lattice", "SpinField", "from_json", "lattice.json"),
    ("lattice", "ScalarGrid", "to_json", "lattice.json"),
    ("lattice", "ScalarGrid", "from_json", "lattice.json"),
    ("chirality", "ChiralityPair", "to_json", "chirality.json"),
    ("continuum", "MeshPotential", "from_json", "continuum.json"),
)

# per-layer metrics in output order: (name, unit)
PER_LAYER = (
    ("lattice.index_mask.calls", "count"),
    ("lattice.index_mask.s", "s"),
    ("lattice.json.s", "s"),
    ("lattice.json.bytes", "bytes"),
    ("lattice.self_s", "s"),
    ("chirality.transform.calls", "count"),
    ("chirality.transform.s", "s"),
    ("chirality.vorticity.s", "s"),
    ("chirality.self_s", "s"),
    ("energy.energy_H.calls", "count"),
    ("energy.energy_H.s", "s"),
    ("energy.energy_H_1d.calls", "count"),
    ("energy.energy_H_1d.s", "s"),
    ("energy.mm_decomposition.s", "s"),
    ("energy.terms", "count"),
    ("energy.self_s", "s"),
    ("continuum.jump_set.calls", "count"),
    ("continuum.jump_set.s", "s"),
    ("continuum.triangles", "count"),
    ("continuum.self_s", "s"),
    ("recovery.build_recovery.s", "s"),
    ("recovery.ext.calls", "count"),
    ("recovery.ext.points", "count"),
    ("recovery.ext.s", "s"),
    ("recovery.overflow_bonds", "count"),
    ("recovery.self_s", "s"),
    ("optimize.iterations", "count"),
    ("optimize.objective_evals", "count"),
    ("optimize.accept_ratio", "ratio"),
    ("optimize.energy_gradient.calls", "count"),
    ("optimize.energy_gradient.s", "s"),
    ("optimize.stalled", "count"),
    ("optimize.self_s", "s"),
    ("cli.run.s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.errors", "count"),
    ("trace_overhead", "1/kref"),
    ("host.ref_s", "s"),
)

_ENERGY_SPANS = ("energy.energy_H", "energy.energy_H_1d")


class Tracer:
    """In-memory span recorder; ``job`` is set by the caller before each job."""

    def __init__(self) -> None:
        # [name, start, end, parent index, job id]; a span is appended when it
        # starts, so a parent's index is always below its children's
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.job = -1
        self._stack: list[int] = []

    def count(self, key: str, value: float) -> None:
        self.counts[self.job][key] += value

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)`` runs
        outside the span to record counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Aggregate the spans and counts of jobs 0 .. jobs-1."""
        n = len(self.spans)
        child_s = np.zeros(n)
        in_minimize = np.zeros(n, dtype=bool)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
                in_minimize[idx] = in_minimize[parent]
            if name == "optimize.minimize_H":
                in_minimize[idx] = True
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        objective_evals = minimize_calls = 0
        for idx, (name, start, end, _, job) in enumerate(self.spans):
            if not 0 <= job < jobs:
                continue
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            self_s[name.split(".", 1)[0]] += dur - child_s[idx]
            if name in _ENERGY_SPANS and in_minimize[idx]:
                objective_evals += 1
            if name == "optimize.minimize_H":
                minimize_calls += 1
        counts: dict[str, float] = defaultdict(float)
        for job, per_job in self.counts.items():
            if 0 <= job < jobs:
                for key, value in per_job.items():
                    counts[key] += value
        # every minimize_H call evaluates the energy once before the first
        # step and once for its final report; the rest are line-search trials
        trials = objective_evals - 2 * minimize_calls
        out = {
            "lattice.index_mask.calls": calls["lattice.index_mask"],
            "lattice.index_mask.s": busy["lattice.index_mask"],
            "lattice.json.s": busy["lattice.json"],
            "lattice.json.bytes": int(counts["lattice.json.bytes"]),
            "chirality.transform.calls": calls["chirality.transform"],
            "chirality.transform.s": busy["chirality.transform"],
            "chirality.vorticity.s": busy["chirality.vorticity"],
            "energy.energy_H.calls": calls["energy.energy_H"],
            "energy.energy_H.s": busy["energy.energy_H"],
            "energy.energy_H_1d.calls": calls["energy.energy_H_1d"],
            "energy.energy_H_1d.s": busy["energy.energy_H_1d"],
            "energy.mm_decomposition.s": busy["energy.mm_decomposition"],
            "energy.terms": int(counts["energy.terms"]),
            "continuum.jump_set.calls": calls["continuum.jump_set"],
            "continuum.jump_set.s": busy["continuum.jump_set"],
            "continuum.triangles": int(counts["continuum.triangles"]),
            "recovery.build_recovery.s": busy["recovery.build_recovery"],
            "recovery.ext.calls": calls["recovery.ext"],
            "recovery.ext.points": int(counts["recovery.ext.points"]),
            "recovery.ext.s": busy["recovery.ext"],
            "recovery.overflow_bonds": int(counts["recovery.overflow_bonds"]),
            "optimize.iterations": int(counts["optimize.iterations"]),
            "optimize.objective_evals": objective_evals,
            "optimize.accept_ratio": counts["optimize.accepted"] / trials if trials else 0.0,
            "optimize.energy_gradient.calls": calls["optimize.energy_gradient"],
            "optimize.energy_gradient.s": busy["optimize.energy_gradient"],
            "optimize.stalled": int(counts["optimize.stalled"]),
            "cli.run.s": busy["cli.run"],
            "cli.bytes_written": int(counts["cli.bytes_written"]),
            "cli.errors": int(counts["cli.errors"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_s[layer])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------- hooks

def _count_terms(tr, args, kwargs, report):
    tr.count("energy.terms", report.term_count)


def _count_triangles(tr, args, kwargs, segs):
    mesh = args[0] if args else kwargs["m"]
    tr.count("continuum.triangles", mesh.triangles.shape[0])


def _count_overflow(tr, args, kwargs, res):
    tr.count("recovery.overflow_bonds", res.overflow_count)


def _count_minimize(tr, args, kwargs, res):
    n = len(res.log)
    tr.count("optimize.iterations", n)
    # the last logged iteration takes no step when it converged or stalled
    tr.count("optimize.accepted", n - int(res.converged or res.stalled))
    tr.count("optimize.stalled", int(res.stalled))


def _count_json_out(tr, args, kwargs, text):
    tr.count("lattice.json.bytes", len(text))


def _count_json_in(tr, args, kwargs, obj):
    text = args[-1] if args else kwargs["text"]
    tr.count("lattice.json.bytes", len(text))


def _count_cli(tr, args, kwargs, out):
    status, _ = out
    tr.count("cli.errors", int(status != 0))
    config = args[1] if len(args) > 1 else kwargs["config"]
    outdir = Path(config.get("out", "."))
    if outdir.is_dir():
        tr.count("cli.bytes_written", sum(p.stat().st_size for p in outdir.iterdir()))


def _count_points(tr, args, kwargs, out):
    tr.count("recovery.ext.points", int(np.size(out)))


_AFTER = {
    "energy.energy_H": _count_terms,
    "energy.mm_decomposition": _count_terms,
    "continuum.jump_set": _count_triangles,
    "recovery.build_recovery": _count_overflow,
    "optimize.minimize_H": _count_minimize,
    "cli.run": _count_cli,
}


class Instrumentation:
    """Installs traced wrappers into the helimag modules and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if name == "helimag" or name.startswith("helimag.")]

    def _rebind(self, original, wrapper) -> None:
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import helimag.cli  # noqa: F401  loads every layer module
        tr = self.tracer
        for layer, names in FUNCTIONS.items():
            mod = sys.modules[f"helimag.{layer}"]
            for fname in names:
                span = f"{layer}.{fname}"
                original = getattr(mod, fname)
                after = _AFTER.get(span)
                if span == "recovery.extend_potential":
                    wrapper = tr.wrap(span, _tracing_extension(tr, original))
                else:
                    wrapper = tr.wrap(span, original, after)
                self._rebind(original, wrapper)
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"helimag.{layer}"], cls_name)
            raw = vars(cls)[meth]
            self._saved.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                after = _count_json_in if span == "lattice.json" else None
                setattr(cls, meth, classmethod(tr.wrap(span, raw.__func__, after)))
            else:
                after = _count_json_out if span == "lattice.json" else None
                setattr(cls, meth, tr.wrap(span, raw, after))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _tracing_extension(tr: Tracer, extend_potential):
    """extend_potential whose returned evaluator is itself a span
    ("recovery.ext") counting the points it evaluates."""

    def extend(m):
        return tr.wrap("recovery.ext", extend_potential(m), _count_points)

    return extend
