"""Span tracer that wraps frozenplanet's public functions from outside.

Each traced function is replaced by a wrapper in every ``frozenplanet.*``
module namespace that binds it, so calls made through a second binding
(``certify`` imports ``big_f`` from ``quadrature``, the kernel lane is
reached through ``active_kernel()``) are recorded too.  A span holds a
label, its parent span, its start and end time and one optional numeric
argument (the node count of a Gauss level, the sample count of a
reconstruction).  Spans live in flat arrays in memory and are written out
when a run ends; every per-layer figure is computed from them afterwards.

A name that no longer exists is recorded as absent instead of failing, so
the benchmark keeps running when a later change deletes a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import time
from array import array

import numpy as np

KERNEL = "kernel"  # owner resolved through frozenplanet._backend.active_kernel()

# (span label, owner module, attribute, argument recorded on the span or None)
TARGETS = (
    ("quadrature.ratio_integrals", "frozenplanet.quadrature", "ratio_integrals", None),
    ("quadrature.big_f", "frozenplanet.quadrature", "big_f", None),
    ("quadrature.period", "frozenplanet.quadrature", "period", None),
    ("quadrature.time_integral", "frozenplanet.quadrature", "time_integral", None),
    ("gauss.gauss_level", "frozenplanet.quadrature", "gauss_level", "n"),
    ("gauss.converge_levels", "frozenplanet._gauss", "converge_levels", None),
    ("backend.ratio_pair", KERNEL, "ratio_pair", None),
    ("backend.time_partial", KERNEL, "time_partial", None),
    ("solver.solve_orbit", "frozenplanet.solver", "solve_orbit", None),
    ("orbit.reconstruct", "frozenplanet.orbit", "reconstruct", "n_samples"),
    ("orbit.residuals", "frozenplanet.orbit", "mean_residual", None),
    ("orbit.residuals", "frozenplanet.orbit", "energy_residual", None),
    ("specialfn.lemniscate_constant", "frozenplanet.specialfn", "lemniscate_constant", None),
    ("certify.run_suite", "frozenplanet.certify", "run_suite", None),
    ("certify.grid", "frozenplanet.certify", "check_monotone_unique_grid", None),
    ("cli.main", "frozenplanet.cli", "main", None),
)

# Per-layer metrics of a traced run: name -> unit.  All but
# solver.full_range.solved_share are "lower is better"; METRICS.md says which
# end-to-end metric each should move.
PER_LAYER = {
    "quadrature.ratio_integrals.calls": "1/op",
    "quadrature.ratio_integrals.self_s": "s/op",
    "quadrature.ratio_integrals.nodes_per_call": "nodes/call",
    "quadrature.ratio_integrals.levels_per_call": "levels/call",
    "quadrature.big_f.calls": "1/op",
    "quadrature.big_f.self_s": "s/op",
    "quadrature.time_integral.calls": "1/op",
    "quadrature.time_integral.self_s": "s/op",
    "quadrature.period.calls": "1/op",
    "gauss.converge_levels.calls": "1/op",
    "gauss.converge_levels.self_s": "s/op",
    "gauss.gauss_level.calls": "1/op",
    "gauss.gauss_level.self_s": "s/op",
    "backend.ratio_pair.calls": "1/op",
    "backend.ratio_pair.self_s": "s/op",
    "backend.time_partial.calls": "1/op",
    "backend.time_partial.self_s": "s/op",
    "solver.solve_orbit.calls": "1/op",
    "solver.solve_orbit.self_s": "s/op",
    "solver.f_evals_per_solve": "1/solve",
    "solver.full_range.solved_share": "ratio",
    "orbit.reconstruct.calls": "1/op",
    "orbit.reconstruct.self_s": "s/op",
    "orbit.time_integral_calls_per_sample": "1/sample",
    "orbit.residuals.self_s": "s",
    "specialfn.lemniscate_constant.first_call_s": "s",
    "certify.run_suite.self_s": "s",
    "certify.grid.self_s": "s",
    "certify.grid.big_f_calls": "count",
    "cli.main.self_s": "s/op",
    "cli.import.numpy_s": "s",
    "cli.import.scipy_s": "s",
    "cli.import.frozenplanet_s": "s",
    "probe.mu2.f_evals": "count",
    "probe.mu2.ratio_integrals_calls": "count",
    "probe.mu2.levels_per_call": "levels/call",
    "probe.mu2.reconstruct512_time_integral_calls": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records nested spans of wrapped calls while ``active`` is true."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("d")
        self.active = False
        self._open = [-1]

    def label_id(self, label: str) -> int:
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def wrap(self, label, fn, arg_name=None):
        """Return a wrapper of ``fn`` that records a span per call."""
        nid = self.label_id(label)
        get_arg = _arg_getter(fn, arg_name) if arg_name else None
        names, parents, starts, ends, args_ = (
            self.name, self.parent, self.start, self.end, self.arg
        )
        open_ = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(open_[-1])
            args_.append(get_arg(args, kwargs) if get_arg else 0.0)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def __len__(self) -> int:
        return len(self.name)

    def spans(self, lo: int = 0, hi: int | None = None) -> dict:
        """Spans ``lo:hi`` as arrays; parents are re-based to the slice."""
        hi = len(self) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi] - lo
        parent[parent < 0] = -1
        return {
            "labels": list(self.labels),
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "parent": parent,
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
            "arg": np.frombuffer(self.arg, dtype=np.float64)[lo:hi].copy(),
        }


def _arg_getter(fn, arg_name):
    """Fast accessor for one argument (by position or keyword) of ``fn``."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(arg_name)
    default = params[pos].default

    def get(args, kwargs):
        if len(args) > pos:
            return float(args[pos])
        return float(kwargs.get(arg_name, default))

    return get


def _owner(module_name: str):
    if module_name == KERNEL:
        return importlib.import_module("frozenplanet._backend").active_kernel()
    return importlib.import_module(module_name)


def install(tracer: Tracer, targets=TARGETS, package: str = "frozenplanet") -> list[str]:
    """Wrap every target in every loaded ``package.*`` namespace binding it.

    Returns the targets that could not be found, as ``module.attribute``.
    """
    absent, found = [], []
    for label, module_name, attr, arg_name in targets:
        try:
            found.append((label, getattr(_owner(module_name), attr), arg_name))
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{attr}")
    # Scan only once every owner is imported, so that no binding is missed.
    modules = [
        mod for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
    ]
    for label, orig, arg_name in found:
        wrapper = tracer.wrap(label, orig, arg_name)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
    return absent


def save(spans: dict, path) -> None:
    np.savez(path, labels=np.array(spans["labels"], dtype=str), **{
        k: v for k, v in spans.items() if k != "labels"
    })


def load(path) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in ("name", "parent", "start", "end", "arg")}
        spans["labels"] = [str(x) for x in data["labels"]]
    return spans


def self_times(start, end, parent):
    """Span duration minus the time covered by its direct children.

    Children of one span run one after another on a single thread, so the
    time they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def nearest_ancestor(name, parent, target: int):
    """Index of each span's nearest strict ancestor labelled ``target``, or -1."""
    anc = parent.copy()
    while True:
        pending = anc >= 0
        pending[pending] = name[anc[pending]] != target
        if not pending.any():
            return anc
        anc[pending] = parent[anc[pending]]


def _label(spans: dict, label: str) -> int:
    return spans["labels"].index(label) if label in spans["labels"] else -1


def count(spans: dict, label: str, within: str | None = None) -> int:
    """Spans labelled ``label``, optionally only those nested in ``within``."""
    mask = spans["name"] == _label(spans, label)
    if within is not None:
        mask &= nearest_ancestor(spans["name"], spans["parent"], _label(spans, within)) >= 0
    return int(np.count_nonzero(mask))


def total_self(spans: dict, label: str) -> float:
    """Summed self time of the spans labelled ``label``."""
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    return float(selfs[spans["name"] == _label(spans, label)].sum())


def layer_metrics(spans: dict, n_ops: int) -> dict[str, float]:
    """Per-op call counts, self times and work ratios from one span set."""
    name = spans["name"]
    out: dict[str, float] = {}
    for label in dict.fromkeys(t[0] for t in TARGETS):
        out[f"{label}.calls"] = count(spans, label) / n_ops
        out[f"{label}.self_s"] = total_self(spans, label) / n_ops

    ri = _label(spans, "quadrature.ratio_integrals")
    levels = (name == _label(spans, "gauss.gauss_level")) & (
        nearest_ancestor(name, spans["parent"], ri) >= 0
    )
    n_ri = max(int(np.count_nonzero(name == ri)), 1)
    out["quadrature.ratio_integrals.nodes_per_call"] = float(spans["arg"][levels].sum()) / n_ri
    out["quadrature.ratio_integrals.levels_per_call"] = np.count_nonzero(levels) / n_ri

    n_solves = max(count(spans, "solver.solve_orbit"), 1)
    out["solver.f_evals_per_solve"] = (
        count(spans, "quadrature.big_f", within="solver.solve_orbit") / n_solves
    )
    rec = name == _label(spans, "orbit.reconstruct")
    half_samples = max(float(spans["arg"][rec].sum()) / 2.0, 1.0)
    out["orbit.time_integral_calls_per_sample"] = (
        count(spans, "quadrature.time_integral", within="orbit.reconstruct") / half_samples
    )
    return {k: float(v) for k, v in out.items() if k in PER_LAYER}


def first_duration(spans: dict, label: str) -> float:
    """Duration of the first span labelled ``label`` (0 when there is none)."""
    idx = np.flatnonzero(spans["name"] == _label(spans, label))
    if idx.size == 0:
        return 0.0
    return float(spans["end"][idx[0]] - spans["start"][idx[0]])


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_seconds(stderr_text: str) -> dict:
    """Import seconds of NumPy, SciPy and frozenplanet from ``-X importtime``.

    Each figure sums the cumulative times of the package's outermost import
    lines.  A NumPy module first imported by SciPy counts as SciPy's cost,
    so the NumPy and SciPy figures do not overlap; the frozenplanet figure
    is the whole ``import frozenplanet``, both of them included.  Lines are
    printed children first, so they are walked in reverse.
    """
    rows = []
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(2)), (len(m.group(3)) - 1) // 2, m.group(4)))
    third_party = {"numpy", "scipy"}
    totals = dict.fromkeys((*sorted(third_party), "frozenplanet"), 0.0)
    stack: list[str] = []
    for cumulative_us, depth, module in reversed(rows):
        del stack[depth:]
        enclosing = {m.split(".")[0] for m in stack}
        stack.append(module)
        root = module.split(".")[0]
        blocked = enclosing & third_party if root in third_party else {root} & enclosing
        if root in totals and not blocked:
            totals[root] += cumulative_us * 1e-6
    return totals
