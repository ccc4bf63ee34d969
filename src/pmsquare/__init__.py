"""Peres-Mermin square toolkit.

Builds the 3x3 two-qubit operator square, establishes by exhaustive
search that no +/-1 assignment satisfies all six row/column constraints,
encodes three photon-pair realizations of the square together with their
simultaneity structure, and constructs deterministic noncontextual
hidden-variable models for each realization, including a joint-
distribution construction realized as a linear-feasibility problem.

The package re-exports nothing: import each name from its module,
``pmsquare.qm``, ``.square``, ``.realizations``, ``.feasibility``,
``.hvmodels``, ``.reports`` or ``.cli``.
"""

__version__ = "0.1.0"
