"""Oracles from the physics, independent of the code they check.

The Peres-Mermin inequality (Cabello, PRL 101, 210401, 2008) bounds every
noncontextual assignment: with row products R0..R2 and column products
C0..C2 of nine +/-1 values, R0 R1 R2 = C0 C1 C2, so
chi = R0 + R1 + R2 + C0 + C1 - C2 is at most 4, while quantum mechanics
gives 6 on every state (the row and first two column operator products
are +I, the last column's is -I).  Each model is deterministic and
noncontextual, so every choice of one realizer per cell yields chi <= 4
whatever the state.  The bound and the quantum 6 coexist because a model
reproduces the Born statistics of its physical measurements only, and a
product over realizers that are not measured together is not one of them.

Fine's theorem ties the joint-distribution refusal to a CHSH violation;
the Farkas certificate the simplex returns on refusal is the violated
CHSH inequality itself, scaled.
"""

import functools
import itertools

import numpy as np
import pytest

from pmsquare.errors import InfeasibleModelError
from pmsquare.hvmodels import PAIR_AXES, build_model1, build_model23, chsh_max_state, fine_joint
from pmsquare.qm import expectations
from pmsquare.realizations import build_realization, cell_classes
from pmsquare.square import CONTEXTS, NAMED_STATES, Context, cell_operator, context_cells

from conftest import boundary_crossing, boundary_point, boundary_slope, random_states

#: The sign of each context's product in chi: -1 on the last column only.
_CHI_SIGNS = np.array([-1 if context == Context("column", 2) else 1 for context in CONTEXTS])


@functools.cache
def _states():
    """The states every oracle runs on, built on first use so a fault fails only those tests."""
    return [*NAMED_STATES.values(), chsh_max_state(), *random_states(40, seed=2008)]


def _chi_values(model, realization):
    """chi of the model for every choice of one realizer class per cell."""
    options = {}
    for cell in realization.cell_map:
        options[cell] = []
        for cls in cell_classes(realization, cell):
            derived = realization.derived[cls[0]]
            column = model.column(derived.parent).tolist()
            options[cell].append(np.array([derived.outcome_map[o] for o in column]))
    cells = list(options)
    values = []
    for choice in itertools.product(*options.values()):
        value = dict(zip(cells, choice))
        products = [
            np.prod([value[cell] for cell in context_cells(context)], axis=0)
            for context in CONTEXTS
        ]
        values.append(float(_CHI_SIGNS @ (np.array(products) @ model.probabilities)))
    return values


def test_born_chi_is_six_on_every_state():
    products = np.array(
        [
            np.linalg.multi_dot([cell_operator(cell) for cell in context_cells(context)])
            for context in CONTEXTS
        ]
    )
    for state in _states():
        assert abs(_CHI_SIGNS @ expectations(state, products) - 6.0) <= 1e-12


@pytest.mark.parametrize("index", [1, 2, 3])
def test_every_model_keeps_the_peres_mermin_bound(index):
    realization = build_realization(index)
    built = 0
    for state in _states():
        try:
            model = build_model1(state) if index == 1 else build_model23(state, index)
        except InfeasibleModelError:
            continue
        built += 1
        chis = _chi_values(model, realization)
        # one choice per product of the cells' class counts: 1, 2^5 and 2
        assert len(chis) == {1: 1, 2: 32, 3: 2}[index]
        assert max(chis) <= 4.0 + 1e-12
    assert built >= len(NAMED_STATES)


def test_the_farkas_certificate_is_the_violated_chsh_inequality():
    # for every refused state, y.b = 0.625 (|S| - 2) and y.A takes only the
    # values 0 and -2.5; a setting's entry on the outcome pair (+1, +1) is
    # negative exactly when its correlator has a minus sign in the CHSH sum
    # that reaches +|S|.  The band: |S| - 2 = 2e-9 .. 9e-4 past both
    # crossings of the boundary path.
    band = []
    for bracket in ((1.0, 1.02), (2.65, 2.67)):
        crossing = boundary_crossing(*bracket)
        slope = boundary_slope(crossing)
        band += [boundary_point(crossing + d / slope) for d in np.geomspace(2e-9, 9e-4, 20)]
    infeasible = 0
    for state in [chsh_max_state(), *random_states(1500, seed=2009), *band]:
        fine = fine_joint(state)
        if fine.status != "infeasible":
            continue
        infeasible += 1
        y, system, ch = fine.certificate, fine.system, fine.ch
        assert abs(y @ system.rhs - 0.625 * (ch.max_abs - 2.0)) <= 1e-12
        ya = y @ system.coefficients
        assert np.all(np.minimum(np.abs(ya), np.abs(ya + 2.5)) <= 1e-12)
        signs = np.where(y[1:].reshape(len(PAIR_AXES), 4)[:, 0] < 0, -1, 1)
        correlators = np.array([ch.correlators[pair] for pair in PAIR_AXES])
        assert abs(signs @ correlators - ch.max_abs) <= 1e-12
    # chsh-max, 150 of the Haar draws and every band state are refused
    assert infeasible == 1 + 150 + len(band)
