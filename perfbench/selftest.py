"""Self-tests of the benchmark harness, run at the start of every run.

Each check returns a problem description, or None when it holds.  They
cover the parts of the harness a wrong number would come from: the
correctness gate, self-time subtraction, seeded inputs and the handling of
a traced name that no longer exists.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types

import numpy as np

import frozenplanet as fp
import tracing
import workloads


def perturbed_result_fails() -> str | None:
    """A qbar1 off by one part in a million must fail the gate."""
    sol = fp.solve_orbit(2.0)
    bad = dataclasses.replace(sol, qbar1=sol.qbar1 * (1.0 + 1e-6))
    if workloads.Orbits().check(2.0, (bad, fp.classify_kappa(bad.kappa))) is None:
        return "orbits gate accepts a perturbed qbar1"
    payload = json.dumps({"solution": {"qbar1": bad.qbar1}})
    if workloads.cli_payload_problem(2.0, payload) is None:
        return "cli gate accepts a perturbed qbar1"
    return None


def self_time_subtraction() -> str | None:
    """Self time on a synthetic tree: A[0,10] > B[1,4] > C[2,3]; A > D[5,7]."""
    spans = {
        "labels": ["A", "B", "C", "D"],
        "name": np.array([0, 1, 2, 3], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int64),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 7.0]),
        "arg": np.zeros(4),
    }
    got = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    if not np.allclose(got, [5.0, 2.0, 1.0, 2.0]):
        return f"self times {got.tolist()}, expected [5, 2, 1, 2]"
    if tracing.count(spans, "C", within="A") != 1 or tracing.count(spans, "D", within="B") != 0:
        return "nested counts wrong on the synthetic tree"
    return None


def seed_determinism() -> str | None:
    if workloads.charge_list(7, 64) != workloads.charge_list(7, 64):
        return "the same seed gave different charges"
    if workloads.charge_list(7, 64) == workloads.charge_list(8, 64):
        return "different seeds gave the same charges"
    return None


def absent_name_recorded() -> str | None:
    """Wrapping a missing name records it as absent; other bindings still wrap."""
    pkg = types.ModuleType("perfbench_fakepkg")
    sub = types.ModuleType("perfbench_fakepkg.sub")
    pkg.f = lambda: 1
    sub.f_alias = pkg.f
    sys.modules.update({pkg.__name__: pkg, sub.__name__: sub})
    try:
        tracer = tracing.Tracer()
        absent = tracing.install(
            tracer,
            [("fake.f", pkg.__name__, "f", None), ("fake.gone", pkg.__name__, "gone", None)],
            package=pkg.__name__,
        )
        tracer.active = True
        sub.f_alias()
        tracer.active = False
        if absent != ["perfbench_fakepkg.gone"]:
            return f"absent names recorded as {absent}"
        if len(tracer) != 1:
            return "a second binding of a wrapped function was not traced"
        metrics = tracing.layer_metrics(tracer.spans(), 1)
        if any(v != 0.0 for v in metrics.values()):
            return "metrics of absent layers are not zero"
    finally:
        del sys.modules[pkg.__name__], sys.modules[sub.__name__]
    return None


def run_all() -> list[str]:
    checks = (
        perturbed_result_fails(),
        self_time_subtraction(),
        seed_determinism(),
        absent_name_recorded(),
    )
    return [problem for problem in checks if problem]
