"""Seeded inputs for the benchmark workloads and the profile of each input set.

Every generator is a pure function of the workload seed.  Each op carries
the properties its cost depends on (state kind, refusal, shots), so the
profile of the ops a run actually submitted can be reported next to its
figures.  The CHSH value that decides refusals is computed here with plain
numpy, independently of the program under test.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: |S| above this makes models 2/3 refuse with exit 3 (the program's threshold).
REFUSAL_THRESHOLD = 2.0 + 1e-9
#: Boundary states keep at least this far from |S| = 2.
BOUNDARY_CLEARANCE = 1e-7
#: Hidden states at or below this weight do not count as positive.
POSITIVE_PROBABILITY = 1e-12

_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_AXIS = {"z": _Z, "x": _X}
_PAIRS = (("z", "z"), ("z", "x"), ("x", "z"), ("x", "x"))

#: The README example command lines plus `verify` and `ch --state psi1`.
README_LINES: tuple[tuple[str, ...], ...] = (
    ("contradiction",),
    ("contradiction", "--constraints", "r0,r1,r2"),
    ("realization", "2"),
    ("model", "1", "--state", "psi1"),
    ("model", "2", "--state", "chsh-max"),
    ("sample", "1", "--state", "psi1", "--shots", "1000000", "--seed", "42"),
    ("verify",),
    ("ch", "--state", "psi1"),
)

#: Sampling: shots of the per-call-overhead ops and the range of the large ones.
SMALL_SHOTS = 10_000
LARGE_SHOTS = (1_000_000, 2_000_000)
#: Sampling cycle: two small ops per large op, LARGE_PER_CYCLE large ops.
LARGE_PER_CYCLE = 12
SAMPLING_STATES = 4

#: Model sweep: Haar and boundary states, and how many of each are refused
#: (about 9% of Haar kets have |S| > 2).  With the 25 named states, of which
#: chsh-max is refused, 43% of ops are cheap (model 1 or a refusal): the
#: median op then falls among the model 2/3 builds, clear of the gap between
#: the two groups, and the 90th percentile among model 2 on full support.
SWEEP_RANDOM_STATES = 25
SWEEP_HAAR_REFUSED = 2
SWEEP_BOUNDARY_REFUSED = 8


@dataclass
class Op:
    """One benchmark operation: a CLI line or one sample_model call."""

    key: str
    argv: tuple[str, ...] = ()
    expected_exit: int = 0
    props: dict[str, Any] = field(default_factory=dict)


def chsh_max_abs(state: np.ndarray) -> float:
    """max |S| over the four CHSH sign placements of the z/x correlators."""
    state = np.asarray(state, dtype=complex)
    e = [
        float(np.vdot(state, np.kron(_AXIS[s], _AXIS[t]) @ state).real) for s, t in _PAIRS
    ]
    values = (
        e[0] + e[1] + e[2] - e[3],
        e[0] + e[1] - e[2] + e[3],
        e[0] - e[1] + e[2] + e[3],
        -e[0] + e[1] + e[2] + e[3],
    )
    return max(abs(v) for v in values)


def _haar(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _named_states() -> dict[str, np.ndarray]:
    from pmsquare.hvmodels import chsh_max_state
    from pmsquare.square import NAMED_STATES

    states = {name: np.asarray(v) for name, v in sorted(NAMED_STATES.items())}
    states["chsh-max"] = chsh_max_state()
    return states


def _stratified(
    draw: Callable[[], np.ndarray], count: int, refused: int, keep: Callable[[float], bool]
) -> list[np.ndarray]:
    """``count`` drawn states with ``keep(|S|)``, exactly ``refused`` of them beyond the bound.

    Fixing the refused count fixes the op mix, so the latency percentiles
    land on the same kind of op whatever the seed.  No state comes within
    BOUNDARY_CLEARANCE of |S| = 2.
    """
    sides: dict[bool, list[np.ndarray]] = {False: [], True: []}
    need = {False: count - refused, True: refused}
    while any(len(sides[side]) < need[side] for side in sides):
        v = draw()
        s = chsh_max_abs(v)
        if not keep(s) or abs(s - 2.0) <= BOUNDARY_CLEARANCE:
            continue
        side = s > REFUSAL_THRESHOLD
        if len(sides[side]) < need[side]:
            sides[side].append(v)
    return sides[False] + sides[True]


def _haar_states(rng: np.random.Generator, count: int, refused: int) -> list[np.ndarray]:
    return _stratified(lambda: _haar(rng), count, refused, lambda s: True)


def _boundary_states(rng: np.random.Generator, count: int, refused: int) -> list[np.ndarray]:
    """Points on cos t * chsh-max + sin t * psi1 with |S| in [1.9, 2.1]."""
    named = _named_states()
    top, psi1 = named["chsh-max"], named["psi1"]

    def draw() -> np.ndarray:
        t = rng.uniform(0.0, math.pi)
        v = math.cos(t) * top + math.sin(t) * psi1
        return v / np.linalg.norm(v)

    return _stratified(draw, count, refused, lambda s: 1.9 <= s <= 2.1)


def _amplitudes_doc(v: np.ndarray) -> dict[str, Any]:
    return {"amplitudes": [[float(a.real), float(a.imag)] for a in v]}


def cli_readme_ops(seed: int) -> Iterator[Op]:
    """The README lines as --json processes, each cycle in a fresh seeded order."""
    rng = np.random.default_rng([seed, 1])
    named = _named_states()
    while True:
        for i in rng.permutation(len(README_LINES)):
            line = README_LINES[i]
            props: dict[str, Any] = {"line": " ".join(line)}
            if line[0] in ("model", "ch"):
                props["chsh"] = chsh_max_abs(named[line[line.index("--state") + 1]])
            yield Op(
                key=" ".join(line),
                argv=(*line, "--json"),
                expected_exit=3 if line[:2] == ("model", "2") else 0,
                props=props,
            )


@dataclass
class SweepInputs:
    ops: list[Op]
    states: dict[str, np.ndarray]  # state file path -> ket


def model_sweep_inputs(seed: int, state_dir: Path) -> SweepInputs:
    """Write the sweep's state files and return one cycle of model ops.

    States interleave named, Haar and boundary kinds so every prefix of the
    cycle keeps the same mix; each state is run with k = 1, 2, 3 in turn.
    """
    rng = np.random.default_rng([seed, 2])
    named = _named_states()
    named_order = [list(named)[i] for i in rng.permutation(len(named))]
    haar = _haar_states(rng, SWEEP_RANDOM_STATES, SWEEP_HAAR_REFUSED)
    haar = [haar[i] for i in rng.permutation(len(haar))]
    boundary = _boundary_states(rng, SWEEP_RANDOM_STATES, SWEEP_BOUNDARY_REFUSED)
    boundary = [boundary[i] for i in rng.permutation(len(boundary))]

    state_dir.mkdir(parents=True, exist_ok=True)
    pool: list[tuple[str, str, np.ndarray, dict[str, Any]]] = []
    for i in range(max(len(named_order), len(haar), len(boundary))):
        if i < len(named_order):
            name = named_order[i]
            pool.append(("named", f"named-{name}", named[name], {"name": name}))
        if i < len(haar):
            pool.append(("haar", f"haar-{i:02d}", haar[i], _amplitudes_doc(haar[i])))
        if i < len(boundary):
            pool.append(
                ("boundary", f"boundary-{i:02d}", boundary[i], _amplitudes_doc(boundary[i]))
            )

    ops: list[Op] = []
    states: dict[str, np.ndarray] = {}
    for kind, stem, vector, document in pool:
        path = state_dir / f"{stem}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        states[str(path)] = vector
        s = chsh_max_abs(vector)
        support = int(np.count_nonzero(np.abs(vector) > 1e-12))
        for k in (1, 2, 3):
            refused = k != 1 and s > REFUSAL_THRESHOLD
            ops.append(
                Op(
                    key=f"model {k} {stem}",
                    argv=("model", str(k), "--state", str(path), "--json"),
                    expected_exit=3 if refused else 0,
                    props={"kind": kind, "k": k, "state": str(path), "chsh": s,
                           "support": support, "refused": refused},
                )
            )
    return SweepInputs(ops, states)


@dataclass
class SamplingInputs:
    ops: list[Op]
    states: list[np.ndarray]


def sampling_inputs(seed: int) -> SamplingInputs:
    """One cycle of sample_model calls on seeded feasible states.

    Two 1e4-shot calls per large call, so the median op measures per-call
    overhead and the 90th percentile per-shot cost.  Large shot counts are
    stratified over [1e6, 2e6) so their quantiles hardly move with the seed.
    """
    rng = np.random.default_rng([seed, 3])
    states = _haar_states(rng, SAMPLING_STATES, refused=0)
    lo, hi = LARGE_SHOTS
    large = [
        lo + int((i + rng.uniform()) / LARGE_PER_CYCLE * (hi - lo))
        for i in range(LARGE_PER_CYCLE)
    ]
    large = [large[i] for i in rng.permutation(LARGE_PER_CYCLE)]
    ops: list[Op] = []
    for i, shots in enumerate(large):
        for j, n in enumerate((SMALL_SHOTS, SMALL_SHOTS, shots)):
            # k cycles 1, 2, 3 separately over the small and the large ops
            k = 1 + (2 * i + j) % 3 if n == SMALL_SHOTS else 1 + i % 3
            state = int(rng.integers(SAMPLING_STATES))
            sample_seed = int(rng.integers(2**32))
            ops.append(
                Op(
                    key=f"sample {k} state{state} {n} {sample_seed}",
                    props={"k": k, "state": state, "shots": n, "seed": sample_seed},
                )
            )
    return SamplingInputs(ops, states)


def build_models(inputs: SamplingInputs) -> dict[tuple[int, int], Any]:
    """The sampled models, one per (k, state); program set-up for `sampling`."""
    from pmsquare import hvmodels

    models = {}
    for op in inputs.ops:
        k, s = op.props["k"], op.props["state"]
        if (k, s) not in models:
            state = inputs.states[s]
            models[(k, s)] = (
                hvmodels.build_model1(state)
                if k == 1
                else hvmodels.build_model23(state, realization_index=k)
            )
    return models


def positive_share(model: Any) -> float:
    positive = sum(1 for s in model.states if s.probability > POSITIVE_PROBABILITY)
    return positive / len(model.states)


def _shares(counter: Counter, total: int) -> dict[str, float]:
    return {str(k): v / total for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))}


def profile(workload: str, ops: list[Op], positive: dict[str, float] | None = None) -> dict[str, Any]:
    """Share of the submitted ops with each property the program's cost depends on.

    ``positive`` maps an op's state key to the positive-hidden-state share
    of the model it builds or samples (measured on the built models).
    """
    n = len(ops)
    out: dict[str, Any] = {"ops": n}
    if not n:
        return out
    out["refused_share"] = sum(op.expected_exit == 3 for op in ops) / n
    if workload == "cli-readme":
        out["line_share"] = _shares(Counter(op.props["line"] for op in ops), n)
        shots = Counter(int(op.argv[op.argv.index("--shots") + 1]) for op in ops
                        if "--shots" in op.argv)
        out["shots_histogram"] = {str(k): v for k, v in sorted(shots.items())}
    elif workload == "model-sweep":
        out["kind_share"] = _shares(Counter(op.props["kind"] for op in ops), n)
        out["model_share"] = _shares(Counter(op.props["k"] for op in ops), n)
        out["mean_support"] = sum(op.props["support"] for op in ops) / n
        built = [op for op in ops if not op.props["refused"]]
        if positive and built:
            out["mean_positive_state_share"] = sum(
                positive[f'{op.props["k"]} {op.props["state"]}'] for op in built
            ) / len(built)
    elif workload == "sampling":
        out["model_share"] = _shares(Counter(op.props["k"] for op in ops), n)
        bins = Counter(
            "1e4" if op.props["shots"] == SMALL_SHOTS
            else "[1e6,1.5e6)" if op.props["shots"] < 1_500_000 else "[1.5e6,2e6)"
            for op in ops
        )
        out["shots_histogram"] = dict(sorted(bins.items()))
        out["mean_shots"] = sum(op.props["shots"] for op in ops) / n
        if positive:
            out["mean_positive_state_share"] = sum(
                positive[f'{op.props["k"]} {op.props["state"]}'] for op in ops
            ) / n
    return out
