"""Classical reference-direction estimation and the large-j2 correspondence.

When the reference spin grows macroscopic, estimating the relative angle
reduces to estimating the tilt of the prepared state against a classical
z-axis.  The azimuth-averaged state sigma(beta) is diagonal in the weight m
with coherences across j, mirroring the quantum blocks diagonal in J with
coherences across j1; the block pairing is m = J - j2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su2 import HalfInt, half
from .states import (BlockedOperator, GenericState, _classical_multipoles, _table_at, averaged_state,
                     check_beta)
from .estimator import TrigBlocks, _products, _table_geometry
from .optimizer import OptimizationResult, _max_fidelity_value, _search, optimize_trig_blocks


def classical_sigma(state: GenericState, beta: float) -> BlockedOperator:
    """<j' m|sigma(beta)|j m> = a_{j'} a_j d^{j'}_{m m1}(beta) d^j_{m m1}(beta), by the classical table."""
    check_beta(beta)
    return _table_at(state, _classical_multipoles(state.m1, state.j_labels), beta)


def classical_trig_blocks(state: GenericState) -> TrigBlocks:
    """A(mu) coefficients for the classical task, from the classical multipole table."""
    bases, geometry = _table_geometry(_classical_multipoles(state.m1, state.j_labels), state.j_labels)
    return TrigBlocks(bases, _products(state.amplitude_vector, geometry))


def classical_fidelity(state: GenericState) -> OptimizationResult:
    """Maximal fidelity for estimating the tilt against a classical z-axis."""
    return optimize_trig_blocks(classical_trig_blocks(state))


def asymptotic_deviation(state: GenericState, j2: HalfInt, beta: float) -> float:
    """Max entrywise gap between the J = j2 + m quantum blocks and sigma's m blocks."""
    j2 = half(j2)
    rho = averaged_state(state, j2, beta)
    sigma = classical_sigma(state, beta)
    worst = 0.0
    for J, (basis, mat) in rho.blocks.items():
        # sigma's block J - j2 holds J's basis (each j1 there has |J - j2| <= j1), maybe more; in
        # the limit the coupled basis's Clebsch-Gordan phases give each row (-1)^{j - m1}
        s_basis, s_mat = sigma.blocks[J - j2]
        idx = [s_basis.index(j) for j in basis]
        signs = np.array([(-1.0) ** ((j.twice - state.m1.twice) // 2) for j in basis])
        worst = max(worst, float(np.abs(mat - s_mat[np.ix_(idx, idx)] * np.outer(signs, signs)).max()))
    return worst


@dataclass
class SweepRow:
    j2: HalfInt
    a_star: float
    f_opt: float
    f_parallel: float
    f_antiparallel: float


def default_sweep_grid() -> list[HalfInt]:
    """Half-integer steps through the fast small-j2 region, then sparse plateau points."""
    grid = [HalfInt(t) for t in range(1, 21)]  # 1/2 .. 10
    grid += [half(v) for v in (15, 20, 30, 50, 100)]
    return grid


def sweep_optimal_vs_j2(j2_values: list[HalfInt]) -> list[SweepRow]:
    """Optimal amplitude and the three fidelity curves over the given j2 grid; no POVM is built."""
    rows = []
    for j2 in map(half, j2_values):
        a_star, _, _, f_opt, f_par = _search(j2)
        rows.append(SweepRow(j2, a_star, f_opt, f_par,
                             _max_fidelity_value(GenericState.antiparallel(), j2)))
    return rows
