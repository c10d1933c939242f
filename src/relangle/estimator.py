"""Utility-weighted measurement operators and average-fidelity evaluation.

Every block entry of the measurement operator A_mu is of the form
c0 + c1*sin(mu) + c2*cos(mu); the three coefficients come from the angular
moments of the squared rotated highest-weight amplitudes, which reduce to
Beta-function values in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .su2 import DomainError, HalfInt, _log_binom, check_jm, half, m_range
from .states import (
    BlockedOperator,
    GenericState,
    _cg_contract,
    _cg_table,
    check_samples,
    coupling_structure,
)

_PSD_TOL = 1e-12
# squared-amplitude entries fidelity_montecarlo holds at once
_MC_CHUNK_ELEMENTS = 2 ** 18


class StructureMismatchError(ValueError):
    """POVM block layout does not match the signal's coupling structure."""


def utility(mu: float, beta: float) -> float:
    """Quadratic figure of merit cos^2((mu - beta)/2)."""
    return math.cos((mu - beta) / 2.0) ** 2


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


@dataclass
class TrigBlock:
    basis: tuple[HalfInt, ...]
    k0: np.ndarray
    k1: np.ndarray  # sin(mu) coefficient
    k2: np.ndarray  # cos(mu) coefficient

    @property
    def dim(self) -> int:
        return len(self.basis)

    def at(self, mu: float) -> np.ndarray:
        return self.k0 + math.sin(mu) * self.k1 + math.cos(mu) * self.k2

    def trace_coeffs(self) -> tuple[float, float, float]:
        return (float(np.trace(self.k0)), float(np.trace(self.k1)), float(np.trace(self.k2)))


@dataclass
class TrigBlocks:
    """Direct sum of trigonometric-in-mu operator families A(mu)."""

    blocks: dict[HalfInt, TrigBlock]

    def at(self, mu: float) -> BlockedOperator:
        out = BlockedOperator()
        for J, blk in self.blocks.items():
            out.blocks[J] = (blk.basis, blk.at(mu))
        return out


@lru_cache(maxsize=None)
def _geometry(m1: HalfInt, js: tuple[HalfInt, ...], j2: HalfInt):
    """Amplitude-independent CG/moment contractions per (J, j1, j1') entry."""
    moments = [moment_integrals(j2, m2) for m2 in m_range(j2)]
    weights = np.array([(t.P, t.Q, t.R) for t in moments]).T  # rows P, Q, R over m2
    return {J: (basis, *_cg_contract(cols, weights))
            for J, (basis, cols) in _cg_table(m1, js, j2).items()}


def signal_trig_blocks(state: GenericState, j2: HalfInt) -> TrigBlocks:
    """A(mu) coefficient blocks for the rotation-averaged signal state."""
    j2 = half(j2)
    geo = _geometry(state.m1, state.j_labels, j2)
    blocks = {}
    for J, (basis, g0, g1, g2) in geo.items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        outer = np.outer(amps, amps)
        blocks[J] = TrigBlock(basis, outer * g0, outer * g1, outer * g2)
    return TrigBlocks(blocks)


def a_operator(state: GenericState, j2: HalfInt, mu: float) -> BlockedOperator:
    """Utility-weighted measurement operator A_mu as a block direct sum."""
    if not 0.0 <= mu <= math.pi:
        raise DomainError(f"mu = {mu} outside [0, pi]")
    return signal_trig_blocks(state, j2).at(mu)


def _lambda_min(a, b, c):
    """Smaller eigenvalue of [[a, b], [b, c]], elementwise; a 1-dim block [x] is (x, 0, x)."""
    return (a + c) / 2.0 - np.hypot((a - c) / 2.0, b)


def _sym_entries(m: np.ndarray) -> tuple[float, float, float]:
    """(a, b, c) of a 1- or 2-dim block, off-diagonal from the lower triangle as eigvalsh reads it."""
    return m[0, 0], m[-1, 0] if len(m) == 2 else 0.0, m[-1, -1]


# ---------------------------------------------------------------------------
# POVM descriptions

@dataclass(frozen=True)
class SingleEstimate:
    """One outcome for the whole block; the element is the block identity."""

    mu: float


@dataclass
class PairEstimate:
    """Two outcomes (nu, pi - nu) with orthogonal rank-one projectors."""

    nu: float
    proj_nu: np.ndarray
    proj_conjugate: np.ndarray  # paired with the estimate pi - nu

    def elements(self) -> list[tuple[float, np.ndarray]]:
        return [(self.nu, self.proj_nu), (math.pi - self.nu, self.proj_conjugate)]


@dataclass
class PovmSpec:
    """Per-J-sector measurement: SingleEstimate or PairEstimate blocks."""

    per_block: dict[HalfInt, SingleEstimate | PairEstimate]

    def elements(self, J: HalfInt, dim: int) -> list[tuple[float, np.ndarray]]:
        spec = self.per_block[J]
        if isinstance(spec, SingleEstimate):
            return [(spec.mu, np.eye(dim))]
        if dim != 2:
            raise StructureMismatchError(f"pair estimate on block of dimension {dim}")
        return spec.elements()

    def validate(self, dims: dict[HalfInt, int], tol: float = _PSD_TOL) -> None:
        """Check finiteness, per-block completeness and positive semidefiniteness."""
        if set(self.per_block) != set(dims):
            raise StructureMismatchError("POVM blocks do not match the coupling structure")
        for J, dim in dims.items():
            els = self.elements(J, dim)
            if not all(math.isfinite(mu) and np.isfinite(e).all() for mu, e in els):
                raise DomainError(f"block J={J} has a non-finite estimate or element entry")
            if isinstance(self.per_block[J], SingleEstimate):
                continue  # one outcome: the block identity
            acc = np.zeros((dim, dim))
            for _, e in els:
                if _lambda_min(*_sym_entries((e + e.T) / 2.0)) < -tol:
                    raise StructureMismatchError(f"element on block J={J} not PSD")
                acc += e
            if np.abs(acc - np.eye(dim)).max() > tol:
                raise StructureMismatchError(f"block J={J} elements do not sum to identity")


def block_dims(state: GenericState, j2: HalfInt) -> dict[HalfInt, int]:
    return {J: len(basis) for J, basis in coupling_structure(state, half(j2))}


def fidelity(state: GenericState, j2: HalfInt, povm: PovmSpec) -> float:
    """Average fidelity sum_J sum_mu Tr(A^J_mu E^J_mu)."""
    j2 = half(j2)
    trig = signal_trig_blocks(state, j2)
    povm.validate({J: blk.dim for J, blk in trig.blocks.items()})
    total = 0.0
    for J, blk in trig.blocks.items():
        for mu, element in povm.elements(J, blk.dim):
            total += float(np.trace(blk.at(mu) @ element))
    return total


def fidelity_montecarlo(state: GenericState, j2: HalfInt, povm: PovmSpec,
                        samples: int, seed: int) -> tuple[float, float]:
    """Simulate the estimation protocol; unbiased (estimate, stderr) of the fidelity.

    Draws beta from the sin(beta)/2 prior, picks an outcome from the exact
    per-outcome probabilities, and averages the utility of the outcome's
    estimate.  Deterministic for fixed (seed, samples).  Costs
    O(samples * (2j2+1) * outcomes) time; the squared amplitudes and outcome
    probabilities are formed and the utilities summed for max(1, 2**18 //
    (2j2+1)) samples at a time, so only the two per-sample uniforms grow
    with samples.
    """
    j2 = half(j2)
    check_samples(samples)
    table = _cg_table(state.m1, state.j_labels, j2)
    povm.validate({J: len(basis) for J, (basis, _) in table.items()})

    # probability of each outcome is linear in the squared rotated amplitudes:
    # p_o(beta) = sum_{m2} coef[o, m2] * (d^{j2}_{m2 j2}(beta))^2
    mus = []
    coef_rows = []
    for J, (basis, cols) in table.items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        for mu, element in povm.elements(J, len(basis)):
            weight = (np.outer(amps, amps) * element.T)[:, :, None]
            mus.append(mu)
            coef_rows.append((weight * cols[:, None, :] * cols[None, :, :]).sum(axis=(0, 1)))
    mus = np.array(mus)
    coef = np.array(coef_rows)

    log_binom = _log_binom(j2.twice)[:, None]
    a_pow = np.arange(j2.twice + 1, dtype=float)[:, None]  # j2 + m2
    b_pow = a_pow[::-1]  # j2 - m2

    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, samples)  # cos(beta), the prior in disguise
    pick = rng.uniform(0.0, 1.0, samples)
    total = total_sq = 0.0  # running sums of the utility and its square
    chunk = max(1, _MC_CHUNK_ELEMENTS // (j2.twice + 1))
    for lo in range(0, samples, chunk):
        uc = u[lo:lo + chunk]
        with np.errstate(divide="ignore"):
            log_c2 = np.log(np.maximum((1.0 + uc) / 2.0, 1e-300))
            log_s2 = np.log(np.maximum((1.0 - uc) / 2.0, 1e-300))
        dsq = np.exp(log_binom + a_pow * log_c2[None, :] + b_pow * log_s2[None, :])
        cum = np.cumsum(np.clip(coef @ dsq, 0.0, None), axis=0)  # (outcomes, chunk)
        draw = pick[lo:lo + chunk] * cum[-1]
        mu_sel = mus[(draw[None, :] > cum).sum(axis=0).clip(max=len(mus) - 1)]
        sin_b = np.sqrt(np.maximum(1.0 - uc * uc, 0.0))
        utils = 0.5 * (1.0 + np.cos(mu_sel) * uc + np.sin(mu_sel) * sin_b)
        total += float(utils.sum())
        total_sq += float(utils @ utils)
    est = total / samples
    var = max(total_sq - samples * est * est, 0.0) / (samples - 1) if samples > 1 else 0.0
    return est, math.sqrt(var / samples)
