"""Span tracing from outside the program, and the per-layer figures it gives.

``Tracer.install`` wraps every public function (and every public method of
a public class) of the traced pmsquare modules, on the defining module and
on every module that imported the name, so intra-package calls are seen.
Spans are (name, start, end, parent, op) rows kept in memory; a few span
kinds also keep attributes (solver verdicts, shot counts, output sizes).
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

TRACED_MODULES = ("qm", "square", "realizations", "feasibility", "hvmodels", "reports", "cli")

#: Ops with this id are set-up or warm-up work, not part of any op.
NO_OP = -1


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[position]


def _solve_attrs(args, kwargs, result):
    system = _arg(args, kwargs, 0, "system")
    key = hash(system.coefficients.tobytes() + system.rhs.tobytes())
    return {"status": result.status, "system": key}


def _model_attrs(args, kwargs, result):
    positive = sum(1 for s in result.states if s.probability > 1e-12)
    return {"positive": positive, "states": len(result.states)}


def _sample_attrs(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    state = np.asarray(_arg(args, kwargs, 1, "state"))
    return {
        "k": model.realization_index,
        "state": [[float(a.real), float(a.imag)] for a in state],
        "shots": int(_arg(args, kwargs, 2, "shots")),
        "seed": int(_arg(args, kwargs, 3, "seed")),
    }


def _render_attrs(args, kwargs, result):
    return {"bytes": len(result.encode())}


class _ColdCalls:
    """Marks build_realization calls that missed its cache."""

    def __init__(self, cached: Any):
        self.cached = cached
        self.misses = cached.cache_info().misses

    def __call__(self, args, kwargs, result):
        misses = self.cached.cache_info().misses
        cold, self.misses = misses > self.misses, misses
        return {"cold": cold}


_ANNOTATORS: dict[str, Callable[..., Callable]] = {
    "feasibility.solve": lambda original: _solve_attrs,
    "hvmodels.build_model1": lambda original: _model_attrs,
    "hvmodels.build_model23": lambda original: _model_attrs,
    "hvmodels.sample_model": lambda original: _sample_attrs,
    "reports.render_json": lambda original: _render_attrs,
    "realizations.build_realization": _ColdCalls,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict[str, Any]] = {}
        self.current_op = NO_OP
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    @contextlib.contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        """The benchmark's own root span around one op; spans inside it belong to ``op``."""
        previous, self.current_op = self.current_op, op
        i = self._open(self._name_id(name))
        self.start[i] = perf_counter()
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()
            self.current_op = previous

    def _wrap(self, name: str, original: Callable) -> Callable:
        name_id = self._name_id(name)
        annotate = _ANNOTATORS[name](original) if name in _ANNOTATORS else None
        tracer, start, end = self, self.start, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            start[i] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                tracer.attrs[i] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of the traced modules everywhere they are bound."""
        import pmsquare

        wrapped: dict[int, Callable] = {}
        for short in TRACED_MODULES:
            module = sys.modules.get(f"pmsquare.{short}")
            if module is None:
                module = __import__(f"pmsquare.{short}", fromlist=["_"])
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, method, self._wrap(f"{short}.{attr}.{method}", fn))
                elif callable(obj):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                    wrapped[id(obj)] = wrapper
                    self._patch(module, attr, wrapper)
        importers = [pmsquare] + [
            m for n, m in list(sys.modules.items()) if n.startswith("pmsquare.") and m
        ]
        for module in importers:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def frame(self) -> "SpanFrame":
        return SpanFrame(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            attrs=dict(self.attrs),
        )


class SpanFrame:
    """Spans as arrays, with durations and self times."""

    def __init__(self, names, name, parent, op, start, end, attrs):
        self.names, self.name, self.parent, self.op = names, name, parent, op
        self.start, self.end, self.attrs = start, end, attrs
        self.duration = end - start
        covered = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    @classmethod
    def concat(cls, frames: list["SpanFrame"], op_offsets: list[int]) -> "SpanFrame":
        """Merge frames; op ids of each frame are shifted by its offset (NO_OP stays)."""
        ids: dict[str, int] = {}
        parts: dict[str, list[np.ndarray]] = {k: [] for k in ("name", "parent", "op", "start", "end")}
        attrs: dict[int, dict[str, Any]] = {}
        offset = 0
        for frame, op_offset in zip(frames, op_offsets):
            remap = np.array([ids.setdefault(n, len(ids)) for n in frame.names] or [0])
            parts["name"].append(remap[frame.name].astype(np.int32))
            parts["parent"].append(np.where(frame.parent >= 0, frame.parent + offset, -1))
            parts["op"].append(np.where(frame.op >= 0, frame.op + op_offset, frame.op))
            parts["start"].append(frame.start)
            parts["end"].append(frame.end)
            attrs.update({i + offset: a for i, a in frame.attrs.items()})
            offset += len(frame.name)
        return cls(list(ids), attrs=attrs, **{k: np.concatenate(v) for k, v in parts.items()})

    @classmethod
    def load(cls, path: Path) -> "SpanFrame":
        with np.load(path) as data:
            arrays = {k: data[k] for k in ("name", "parent", "op", "start", "end")}
            names, attrs = [str(n) for n in data["names"]], json.loads(str(data["attrs"]))
        return cls(names, attrs={int(i): a for i, a in attrs.items()}, **arrays)

    def save(self, path: Path) -> None:
        """Write the spans to ``path`` (.npz), where ``load`` reads them back."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            op=self.op,
            start=self.start,
            end=self.end,
            attrs=np.array(json.dumps({str(i): a for i, a in self.attrs.items()})),
        )

    def select(self, name: str, ops: np.ndarray) -> np.ndarray:
        """Indices of the spans called ``name`` that belong to one of ``ops``."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero((self.name == self.names.index(name)) & np.isin(self.op, ops))
