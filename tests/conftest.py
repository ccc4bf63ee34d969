"""Shared helpers: seeded state corpora, independent linear-algebra oracles, witness rows."""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from pmsquare import square
from pmsquare.hvmodels import ch_report, chsh_max_state
from pmsquare.square import NAMED_STATES, cell_operator, context_cells


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index bookkeeping, independent of np.kron."""
    out = np.zeros((4, 4), dtype=complex)
    for r1 in range(2):
        for c1 in range(2):
            for r2 in range(2):
                for c2 in range(2):
                    out[2 * r1 + r2, 2 * c1 + c2] = a[r1, c1] * b[r2, c2]
    return out


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product by explicit triple loop."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(n))
    return out


@functools.lru_cache(maxsize=None)
def table_triples(context) -> tuple[tuple[int, int, int], ...]:
    """A context's value triples read off its table states, not off its sign.

    For each table state v, the rounded real part of <v|op|v> for the
    context's three cell operators, each checked to be an exact eigenvalue.
    """
    ops = [cell_operator(cell) for cell in context_cells(context)]
    triples = []
    for _, v in square._table_states()[context]:
        values = tuple(int(np.rint(np.vdot(v, op @ v).real)) for op in ops)
        for op, value in zip(ops, values):
            assert np.max(np.abs(op @ v - value * v)) <= 1e-12
        triples.append(values)
    return tuple(triples)


def random_states(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(v / np.linalg.norm(v))
    return states


def random_product_states(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        states.append(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)))
    return states


def boundary_point(t: float) -> np.ndarray:
    """The unit state along cos t * chsh-max + sin t * psi1."""
    v = math.cos(t) * chsh_max_state() + math.sin(t) * NAMED_STATES["psi1"]
    return v / np.linalg.norm(v)


def boundary_crossing(lo: float, hi: float) -> float:
    """The t in [lo, hi] where |S| crosses 2 on the ``boundary_point`` path."""

    def excess(t):
        return ch_report(boundary_point(t)).max_abs - 2.0

    rising = excess(lo) < 0.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if (excess(mid) < 0.0) == rising:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def boundary_slope(t: float) -> float:
    """d|S|/dt on the ``boundary_point`` path at t, by a central difference."""
    ahead = ch_report(boundary_point(t + 1e-6)).max_abs
    behind = ch_report(boundary_point(t - 1e-6)).max_abs
    return (ahead - behind) / 2e-6


#: One flagged hidden state of a witness scan: its context or cell, the
#: realizer ids, its row in the model table, the triple or the two
#: disagreeing values, its weight and its outcome per measurement id.
Witness = collections.namedtuple(
    "Witness", "group measurement_ids state_index values probability outcomes"
)


def witness_rows(model, blocks) -> list[Witness]:
    """One ``Witness`` per state of each ``WitnessBlock``, in scan order."""
    return [
        Witness(
            block.group,
            block.measurement_ids,
            state,
            tuple(values),
            model.probabilities[state].item(),
            dict(zip(model.measurement_ids, model.outcomes[state].tolist())),
        )
        for block in blocks
        for state, values in zip(block.states.tolist(), block.values.tolist())
    ]
