"""Per-layer figures of a traced run: span statistics, import split, sampling memory.

Each figure is computed over the workload's own traced ops.  A layer the
workload's ops never reach has no figure there; the runner then takes it
from the probe ops (see README.md) and records that it did.
"""

from __future__ import annotations

import gc
import statistics
import tracemalloc
from typing import Any

import numpy as np

from spans import SpanFrame

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("import.numpy_ms", "ms"),
    ("import.pmsquare_self_ms", "ms"),
    ("import.other_ms", "ms"),
    ("cli.resolve_state.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("feasibility.solve.calls_per_op", "count"),
    ("feasibility.solve.useful_ratio", "ratio"),
    ("feasibility.solve.feasible_ms", "ms"),
    ("feasibility.solve.infeasible_ms", "ms"),
    ("hvmodels.fine_system.ms", "ms"),
    ("hvmodels.build_model1.ms", "ms"),
    ("hvmodels.build_model23.self_ms", "ms"),
    ("hvmodels.reproduce_statistics.ms", "ms"),
    ("hvmodels.violation_witnesses.ms", "ms"),
    ("hvmodels.positive_state_share", "share"),
    ("qm.expectation.calls_per_op", "count"),
    ("realizations.born_distribution.calls_per_op", "count"),
    ("hvmodels.sample_model.ms_per_mshot", "ms"),
    ("hvmodels.sample_model.peak_bytes_per_shot", "B/shot"),
    ("square.search_assignments.ms", "ms"),
    ("square.commutation_relation.ms", "ms"),
    ("realizations.build_realization.cold_ms", "ms"),
    ("reports.render_json.ms", "ms"),
    ("reports.render_json.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

#: Metrics that take the mean span duration (or self time) per call, in ms.
_MEAN_MS = {
    "cli.resolve_state.ms": ("cli.resolve_state", False),
    "cli.main.self_ms": ("cli.main", True),
    "hvmodels.fine_system.ms": ("hvmodels.fine_system", False),
    "hvmodels.build_model1.ms": ("hvmodels.build_model1", False),
    "hvmodels.build_model23.self_ms": ("hvmodels.build_model23", True),
    "hvmodels.reproduce_statistics.ms": ("hvmodels.reproduce_statistics", False),
    "hvmodels.violation_witnesses.ms": ("hvmodels.violation_witnesses", False),
    "square.search_assignments.ms": ("square.search_assignments", False),
    "square.commutation_relation.ms": ("square.commutation_relation", False),
    "reports.render_json.ms": ("reports.render_json", False),
}

#: Metrics that count calls per op.
_CALLS_PER_OP = {
    "qm.expectation.calls_per_op": "qm.expectation",
    "realizations.born_distribution.calls_per_op": "realizations.PhysicalMeasurement.born_distribution",
}


def _mean_ms(frame: SpanFrame, span: str, ops: np.ndarray, self_time: bool) -> float | None:
    idx = frame.select(span, ops)
    if not len(idx):
        return None
    values = frame.self_time[idx] if self_time else frame.duration[idx]
    return float(values.mean() * 1e3)


def span_metrics(frame: SpanFrame, ops: np.ndarray) -> dict[str, float | None]:
    """Per-layer figures over the spans of ``ops``; None where no span gives one."""
    out: dict[str, float | None] = {}
    for metric, (span, self_time) in _MEAN_MS.items():
        out[metric] = _mean_ms(frame, span, ops, self_time)
    for metric, span in _CALLS_PER_OP.items():
        out[metric] = len(frame.select(span, ops)) / len(ops) if len(ops) else None

    # solver reuse is measured on the ops that built a model 2/3: refusals
    # solve once by construction and have nothing to reuse
    built = np.unique(frame.op[[i for i in frame.select("hvmodels.build_model23", ops)
                                if i in frame.attrs]])
    solves = frame.select("feasibility.solve", built)
    if len(built) and len(solves):
        distinct = {(int(frame.op[i]), frame.attrs[i]["system"]) for i in solves}
        out["feasibility.solve.calls_per_op"] = len(solves) / len(built)
        out["feasibility.solve.useful_ratio"] = len(distinct) / len(solves)
    else:
        out["feasibility.solve.calls_per_op"] = out["feasibility.solve.useful_ratio"] = None
    all_solves = frame.select("feasibility.solve", ops)
    for status in ("feasible", "infeasible"):
        idx = [i for i in all_solves if frame.attrs[i]["status"] == status]
        out[f"feasibility.solve.{status}_ms"] = (
            float(frame.duration[idx].mean() * 1e3) if idx else None
        )

    models = [i for name in ("hvmodels.build_model1", "hvmodels.build_model23")
              for i in frame.select(name, ops) if i in frame.attrs]
    out["hvmodels.positive_state_share"] = (
        statistics.fmean(frame.attrs[i]["positive"] / frame.attrs[i]["states"] for i in models)
        if models else None
    )

    samples = frame.select("hvmodels.sample_model", ops)
    shots = sum(frame.attrs[i]["shots"] for i in samples if i in frame.attrs)
    out["hvmodels.sample_model.ms_per_mshot"] = (
        float(frame.duration[samples].sum() * 1e3 / shots * 1e6) if shots else None
    )

    renders = [i for i in frame.select("reports.render_json", ops) if i in frame.attrs]
    out["reports.render_json.bytes"] = (
        statistics.fmean(frame.attrs[i]["bytes"] for i in renders) if renders else None
    )
    return out


def cold_realization_ms(frame: SpanFrame, ops: np.ndarray) -> float | None:
    """Mean time of the build_realization calls of ``ops`` that missed its cache."""
    idx = [i for i in frame.select("realizations.build_realization", ops)
           if frame.attrs.get(i, {}).get("cold")]
    return float(frame.duration[idx].mean() * 1e3) if idx else None


def sample_calls(frame: SpanFrame, ops: np.ndarray) -> list[dict[str, Any]]:
    return [frame.attrs[i] for i in frame.select("hvmodels.sample_model", ops)
            if i in frame.attrs]


def sample_peaks(calls: list[dict[str, Any]], limit: int = 4) -> list[dict[str, float]]:
    """Replay sample_model calls under tracemalloc; peak bytes per shot of each.

    Replays the calls with the fewest and the most shots, so the table shows
    whether memory per shot depends on the shot count.
    """
    from pmsquare import hvmodels

    by_shots = {call["shots"]: call for call in calls}
    chosen = sorted(by_shots)
    chosen = sorted(set(chosen[: limit // 2] + chosen[-(limit - limit // 2):]))
    table = []
    for shots in chosen:
        call = by_shots[shots]
        state = np.array([complex(re, im) for re, im in call["state"]])
        model = (hvmodels.build_model1(state) if call["k"] == 1
                 else hvmodels.build_model23(state, realization_index=call["k"]))
        _, peak = traced_peak(lambda: hvmodels.sample_model(model, state, shots, call["seed"]))
        table.append({"shots": shots, "k": call["k"], "bytes_per_shot": peak / shots})
    return table


def traced_peak(fn) -> tuple[Any, int]:
    """``fn()`` and the bytes allocated at its peak above what was live before it.

    Garbage is collected first, so the peak does not depend on when the
    collector last ran.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def import_split(stderr: str) -> dict[str, float]:
    """Split `python -X importtime` output into numpy, pmsquare's own modules and the rest (ms)."""
    numpy_us = pmsquare_us = total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        total_us += self_us
        if name == "numpy":
            numpy_us = cumulative_us
        elif name == "pmsquare" or name.startswith("pmsquare."):
            pmsquare_us += self_us
    return {
        "import.numpy_ms": numpy_us / 1e3,
        "import.pmsquare_self_ms": pmsquare_us / 1e3,
        "import.other_ms": (total_us - numpy_us - pmsquare_us) / 1e3,
    }
