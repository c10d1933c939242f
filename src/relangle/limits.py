"""Classical reference-direction estimation and the large-j2 correspondence.

When the reference spin grows macroscopic, estimating the relative angle
reduces to estimating the tilt of the prepared state against a classical
z-axis.  The azimuth-averaged state sigma(beta) is diagonal in the weight m
with coherences across j, mirroring the quantum blocks diagonal in J with
coherences across j1; the block pairing is m = J - j2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .su2 import DomainError, HalfInt, half, m_range, wigner_d_matrix
from .states import BlockedOperator, GenericState, _cg_contract, _m_index, averaged_state, check_beta
from .estimator import TrigBlock, TrigBlocks
from .optimizer import OptimizationResult, optimize_trig_blocks, max_fidelity, optimize_state

_QUAD_NODES = 200


def _sigma_columns(state: GenericState, betas) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per weight m: labels j >= |m| and a_j d^j_{m m1}(beta) over them, (dim, n); one d call per label."""
    cols = {j: a * wigner_d_matrix(j, betas)[:, :, _m_index(j, state.m1)]
            for j, a in state.amplitudes}
    out = {}
    for m in m_range(max(state.j_labels, key=lambda j: j.twice)):
        basis = tuple(j for j in state.j_labels if abs(m.twice) <= j.twice)
        out[m] = (basis, np.array([cols[j][:, _m_index(j, m)] for j in basis]))
    return out


def classical_sigma(state: GenericState, beta: float) -> BlockedOperator:
    """<j' m|sigma(beta)|j m> = a_{j'} a_j d^{j'}_{m m1}(beta) d^{j}_{m m1}(beta)."""
    check_beta(beta)
    out = BlockedOperator()
    for m, (basis, amp_d) in _sigma_columns(state, beta).items():
        out.blocks[m] = (basis, np.outer(amp_d[:, 0], amp_d[:, 0]))
    return out


@lru_cache(maxsize=None)
def _quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, pi] and their k0, k1, k2 weight rows, built once on first use."""
    nodes, weights = leggauss(_QUAD_NODES)
    betas = (nodes + 1.0) * (math.pi / 2.0)
    sb = np.sin(betas)
    # rows: the node weights of k0, k1 (sin mu) and k2 (cos mu) against the sin(beta)/2 prior
    return betas, weights * (math.pi / 2.0) * np.stack([sb, sb * sb, np.cos(betas) * sb]) / 4.0


def classical_trig_blocks(state: GenericState) -> TrigBlocks:
    """A(mu) coefficients for the classical task, by Gauss-Legendre quadrature."""
    betas, w = _quadrature()
    return TrigBlocks({m: TrigBlock(basis, *_cg_contract(amp_d, w))
                       for m, (basis, amp_d) in _sigma_columns(state, betas).items()})


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
        m = J - j2
        if m not in sigma.blocks:
            raise DomainError(f"quantum block J={J} has no classical partner m={m}")
        s_basis, s_mat = sigma.blocks[m]
        missing = [j for j in basis if j not in s_basis]
        if missing:
            raise DomainError(f"label {missing[0]} missing from classical block m={m}")
        idx = [s_basis.index(j) for j in basis]
        sub = s_mat[np.ix_(idx, idx)]
        # coupled-basis Clebsch-Gordan phases contribute (-1)^{j - m1} per row
        # in the limit, so off-diagonals flip sign relative to sigma's basis
        signs = np.array([(-1.0) ** ((j.twice - state.m1.twice) // 2) for j in basis])
        sub = sub * np.outer(signs, signs)
        worst = max(worst, float(np.abs(mat - sub).max()))
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
    """Optimal amplitude and the three fidelity curves over the given j2 grid."""
    rows = []
    for j2 in j2_values:
        j2 = half(j2)
        a_star, _, result = optimize_state(j2)
        f_par = max_fidelity(GenericState.parallel(), j2, certify=False).fidelity
        f_anti = max_fidelity(GenericState.antiparallel(), j2, certify=False).fidelity
        rows.append(SweepRow(j2=j2, a_star=a_star, f_opt=result.fidelity,
                             f_parallel=f_par, f_antiparallel=f_anti))
    return rows
