"""Reference code that only the tests use: block dimensions, a symmetry measure, coherent-state
outcome probabilities, the reduction of a product-space operator to J blocks, and the two routes
that the multipole tables replaced: Clebsch-Gordan contractions for the rotation average and a
Gauss-Legendre quadrature over Wigner-d columns for the classical limit."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from relangle.su2 import (
    DomainError,
    HalfInt,
    _highest_weight_vector,
    _racah,
    _signed_sqrt,
    check_jm,
    half,
    m_range,
    wigner_d_matrix,
)
from relangle.states import (
    BlockedOperator,
    GenericState,
    _m_index,
    averaged_state,
    coupled_basis_matrix,
    coupling_structure,
)
from relangle.estimator import TrigBlock, TrigBlocks, _geometry


def block_dims(state: GenericState, j2: HalfInt) -> dict[HalfInt, int]:
    return {J: len(basis) for J, basis in coupling_structure(state.j_labels, half(j2))}


def max_symmetry_defect(rho: BlockedOperator) -> float:
    return max(float(np.abs(m - m.T).max()) for _, m in rho.blocks.values())


def coherent_overlap_distribution(state: GenericState, j2: HalfInt, beta: float) -> dict[HalfInt, float]:
    """Outcome probabilities p_J(beta) for a coherent preparation (each J once)."""
    if not is_coherent(state):
        raise DomainError("overlap distribution is defined for coherent preparations only")
    rho = averaged_state(state, j2, beta)
    return {J: float(mat[0, 0]) for J, (basis, mat) in rho.blocks.items()}


def blocks_from_full_matrix(state: GenericState, j2: HalfInt, full: np.ndarray) -> BlockedOperator:
    """Reduce a full product-space operator to M-summed (J, j1, j1') blocks."""
    V, labels = coupled_basis_matrix(state, j2)
    coupled = V.T @ full.real @ V
    cols: dict[tuple[HalfInt, HalfInt], list[int]] = {}  # per (J, j1), in ascending M
    for c, (J, _, j1) in enumerate(labels):
        cols.setdefault((J, j1), []).append(c)
    out = BlockedOperator()
    for J, basis in coupling_structure(state.j_labels, j2):
        # sum over M of the (J M j1, J M j1') entries: the diagonal of each sub-block
        out.blocks[J] = (basis, np.array([[np.trace(coupled[np.ix_(cols[J, a], cols[J, b])])
                                           for b in basis] for a in basis]))
    return out


def geometry_blocks(m1: HalfInt, labels: tuple[HalfInt, ...],
                    j2: HalfInt) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """_geometry's per-dimension stacks read back per J, in J order: basis and (3, d, d) k0, k1, k2."""
    bases, stacks = _geometry(m1, labels, j2)
    views = sorted(((place, coeffs[:, n]) for places, _, coeffs in stacks.values()
                    for n, place in enumerate(places)), key=lambda pair: pair[0])
    return {J: (basis, view) for (J, basis), (_, view) in zip(bases.items(), views)}


def is_coherent(state: GenericState) -> bool:
    """Whether state is the spin coherent preparation |j1, m1 = j1>."""
    return len(state.amplitudes) == 1 and state.amplitudes[0][0] == state.m1


# ---------------------------------------------------------------------------
# the Clebsch-Gordan route: every rotation average as a contraction over m2

def _cg_contract(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_n w(n) cols[i, n] cols[k, n] per row of w; multiplied out first, so exactly symmetric."""
    return (cols[:, None, :] * cols[None, :, :] * w[..., None, None, :]).sum(axis=-1)


def cg_column(j1: HalfInt, m1: HalfInt, j2: HalfInt, J: HalfInt) -> np.ndarray:
    """C^{J, m1+m2}_{j1 m1, j2 m2} over m2 = -j2..j2 (0 outside |M| <= J)."""
    return np.array([_signed_sqrt(*_racah(j1.twice, m1.twice, j2.twice, t2, J.twice, m1.twice + t2))
                     if abs(m1.twice + t2) <= J.twice else 0.0
                     for t2 in range(-j2.twice, j2.twice + 1, 2)])


@lru_cache(maxsize=None)
def cg_table(m1: HalfInt, labels: tuple[HalfInt, ...],
             j2: HalfInt) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per J of coupling_structure(labels, j2): its basis and the (dim, 2j2+1) CG columns."""
    return {J: (basis, np.array([cg_column(j1, m1, j2, J) for j1 in basis]))
            for J, basis in coupling_structure(labels, j2)}


@dataclass(frozen=True)
class MomentTriple:
    """Angular moments (P, Q, R) with I(mu) = P + Q*sin(mu) + R*cos(mu)."""

    P: float
    Q: float
    R: float

    def value(self, mu: float) -> float:
        return self.P + self.Q * math.sin(mu) + self.R * math.cos(mu)


@lru_cache(maxsize=None)
def moment_integrals(j2: HalfInt, m2: HalfInt) -> MomentTriple:
    """Closed-form moments of (d^{j2}_{m2 j2}(beta))^2 against the sin(beta)/2 prior.

    With u = cos(beta) the squared amplitude is a Bernstein monomial in
    (1+u)/2, so the three integrals are Beta functions:
      P = 1/(2(2j+1)),  R = m/((2j+1)(2j+2)),
      Q = binom(2j, j+m) * Gamma(j+m+3/2) * Gamma(j-m+3/2) / Gamma(2j+3).
    """
    j2, m2 = half(j2), half(m2)
    check_jm(j2, m2)
    tj = j2.twice
    a, b = (j2.twice + m2.twice) // 2, (j2.twice - m2.twice) // 2
    P = 1.0 / (2.0 * (tj + 1))
    R = float(m2) / ((tj + 1) * (tj + 2))
    log_q = (
        math.lgamma(a + b + 1) - math.lgamma(a + 1) - math.lgamma(b + 1)
        + math.lgamma(a + 1.5) + math.lgamma(b + 1.5) - math.lgamma(a + b + 3)
    )
    return MomentTriple(P=P, Q=math.exp(log_q), R=R)


def cg_geometry(m1: HalfInt, labels: tuple[HalfInt, ...],
                j2: HalfInt) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per J: its basis and its (3, dim, dim) k0, k1, k2, each a CG contraction with P, Q or R."""
    moments = [moment_integrals(j2, m2) for m2 in m_range(j2)]
    weights = np.array([(t.P, t.Q, t.R) for t in moments]).T  # rows P, Q, R over m2
    return {J: (basis, _cg_contract(cols, weights))
            for J, (basis, cols) in cg_table(m1, labels, j2).items()}


def cg_averaged_state(state: GenericState, j2: HalfInt, beta: float) -> BlockedOperator:
    """averaged_state by the CG route: block J is a a^T o sum_{m2} d^2(beta) C C."""
    j2 = half(j2)
    dsq = _highest_weight_vector(j2, beta) ** 2
    out = BlockedOperator()
    for J, (basis, cols) in cg_table(state.m1, state.j_labels, j2).items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        out.blocks[J] = (basis, np.outer(amps, amps) * _cg_contract(cols, dsq))
    return out


# ---------------------------------------------------------------------------
# the quadrature route: the classical task over Wigner-d columns at Gauss-Legendre nodes

QUAD_NODES = 200


def sigma_columns(state: GenericState, betas) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per weight m: labels j >= |m| and a_j d^j_{m m1}(beta) over them, (dim, n); one d call per label."""
    cols = {j: a * wigner_d_matrix(j, betas)[:, :, _m_index(j, state.m1)]
            for j, a in state.amplitudes}
    out = {}
    for m in m_range(max(state.j_labels, key=lambda j: j.twice)):
        basis = tuple(j for j in state.j_labels if abs(m.twice) <= j.twice)
        out[m] = (basis, np.array([cols[j][:, _m_index(j, m)] for j in basis]))
    return out


def quadrature_sigma(state: GenericState, beta: float) -> BlockedOperator:
    """classical_sigma as outer products of d columns: a_{j'} a_j d^{j'}_{m m1}(beta) d^j_{m m1}(beta)."""
    return BlockedOperator({m: (basis, np.outer(amp_d[:, 0], amp_d[:, 0]))
                            for m, (basis, amp_d) in sigma_columns(state, beta).items()})


@lru_cache(maxsize=None)
def quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, pi] and their k0, k1, k2 weight rows."""
    nodes, weights = leggauss(QUAD_NODES)
    betas = (nodes + 1.0) * (math.pi / 2.0)
    sb = np.sin(betas)
    # rows: the node weights of k0, k1 (sin mu) and k2 (cos mu) against the sin(beta)/2 prior
    return betas, weights * (math.pi / 2.0) * np.stack([sb, sb * sb, np.cos(betas) * sb]) / 4.0


def quadrature_trig_blocks(state: GenericState) -> TrigBlocks:
    """classical_trig_blocks by Gauss-Legendre quadrature of the d columns."""
    betas, w = quadrature()
    return TrigBlocks.of({m: TrigBlock(basis, *_cg_contract(amp_d, w))
                          for m, (basis, amp_d) in sigma_columns(state, betas).items()})
