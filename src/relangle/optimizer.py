"""Optimal estimates, POVMs and preparation-amplitude search.

Every J-block of A(mu) = k0 + sin(mu) k1 + cos(mu) k2 is solved in closed
form.  Since A(pi - mu) - A(mu) = -2 cos(mu) k2, the best (nu, pi - nu) pair
measures in the mu-independent eigenbasis of k2 and earns
tr k0 + sin(nu) tr k1 + cos(nu) ||k2||_1, largest at
nu = atan2(tr k1, ||k2||_1); a 1-dim block is the same formula with a single
outcome.  No eigensolver is needed for the value, so the preparation search
values whole amplitude grids in one array pass.  Optimality of a reported POVM
is certified by scanning the minimum eigenvalue of Upsilon - A_mu over a dense
mu grid; every block is 1x1 or 2x2, so that eigenvalue has the closed form
(a + c)/2 - hypot((a - c)/2, b), and one (blocks x grid) array pass replaces
any eigensolver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import DomainError, HalfInt, half
from .estimator import (
    PairEstimate,
    PovmSpec,
    SingleEstimate,
    TrigBlock,
    TrigBlocks,
    _geometry,
    _lambda_min,
    _sym_entries,
    signal_trig_blocks,
)
from .states import GenericState

CERTIFICATE_GRID = 1001
CERTIFICATE_GRID_MIN = 101
CERTIFICATE_PASS = -1e-9
# points per bracket-shrinking pass of optimize_state: each pass narrows 500x
_REFINE_POINTS = 1001
# (a, b, c) places of k2 in the solved 1- and 2-dim blocks, built once
_UPPER = {1: np.triu_indices(1), 2: np.triu_indices(2)}


class UnsupportedBlockError(ValueError):
    """Block dimension above 2: outside the solved optimization scope."""


@dataclass
class OptimizationResult:
    povm: PovmSpec
    fidelity: float
    per_block_contributions: dict[HalfInt, float]
    certificate_min_eigenvalue: float | None

    @property
    def certified(self) -> bool:
        return (self.certificate_min_eigenvalue is not None
                and self.certificate_min_eigenvalue >= CERTIFICATE_PASS)


def _check_block(J: HalfInt, dim: int) -> None:
    if dim > 2:
        raise UnsupportedBlockError(
            f"block J={J} has dimension {dim}; only dimensions <= 2 are solved")


def _check_grid(grid) -> None:
    if not isinstance(grid, (int, np.integer)) or grid < CERTIFICATE_GRID_MIN:
        raise DomainError(f"grid = {grid!r} must be an int of at least {CERTIFICATE_GRID_MIN}")


def _block_value(t0, t1, a, b=0.0, c=0.0):
    """tr k0 + hypot(max(tr k1, 0), ||k2||_1) and nu for k2 = [[a, b], [b, c]], elementwise."""
    t1 = np.maximum(t1, 0.0)
    norm = np.maximum(np.abs(a + c), np.hypot(a - c, 2.0 * b))  # ||k2||_1; 1-dim: b = c = 0
    return t0 + np.hypot(t1, norm), np.arctan2(t1, norm)


def _block_optimum(J: HalfInt, blk: TrigBlock) -> tuple[SingleEstimate | PairEstimate, float]:
    """Best estimate(s) for one block and the block's fidelity contribution.

    The pair objective tr k0 + sin(nu) tr k1 + cos(nu) ||k2||_1 peaks at
    nu = atan2(tr k1, ||k2||_1); the k2 eigenvectors with positive eigenvalue
    take nu, the rest pi - nu.  Clamping tr k1 at 0 gives the endpoint optimum.
    """
    _check_block(J, blk.dim)
    contrib, nu = map(float, _block_value(np.trace(blk.k0), np.trace(blk.k1),
                                          *blk.k2[_UPPER[blk.dim]]))
    if blk.dim == 1:
        return SingleEstimate(nu if blk.k2[0, 0] > 0.0 else math.pi - nu), contrib
    lam, vecs = np.linalg.eigh(blk.k2)
    pos = vecs[:, lam > 0.0]
    proj_nu = pos @ pos.T
    return PairEstimate(nu=nu, proj_nu=proj_nu, proj_conjugate=np.eye(2) - proj_nu), contrib


def _solved_block(state: GenericState, j2: HalfInt, J: HalfInt, dim: int):
    J = half(J)
    blk = signal_trig_blocks(state, half(j2)).blocks[J]
    if blk.dim != dim:
        raise UnsupportedBlockError(f"block J={J} has dimension {blk.dim}, expected {dim}")
    return _block_optimum(J, blk)


def optimal_single_estimate(state: GenericState, j2: HalfInt, J: HalfInt) -> tuple[float, float]:
    """Best single estimate and its fidelity contribution for a 1-dim block."""
    single, contrib = _solved_block(state, j2, J, 1)
    return single.mu, contrib


def optimal_pair(state: GenericState, j2: HalfInt, J: HalfInt) -> tuple[float, PairEstimate, float]:
    """Optimal (nu, pi - nu) two-outcome measurement for a 2-dim block."""
    pair, contrib = _solved_block(state, j2, J, 2)
    return pair.nu, pair, contrib


def _certificate(trig: TrigBlocks, povm: PovmSpec, grid: int) -> float:
    """Minimum eigenvalue of Upsilon - A_mu over all blocks and a mu grid, in one array pass."""
    entries = []  # (a, b, c) of Upsilon - k0, k1 and k2 per block
    for J, blk in trig.blocks.items():
        _check_block(J, blk.dim)
        upsilon = sum(blk.at(mu) @ element for mu, element in povm.elements(J, blk.dim))
        upsilon = (upsilon + upsilon.T) / 2.0
        entries.append([_sym_entries(m) for m in (upsilon - blk.k0, blk.k1, blk.k2)])
    gap, k1, k2 = np.array(entries).transpose(1, 2, 0)[..., None]  # each (3, blocks, 1)
    mu = np.linspace(0.0, math.pi, grid)
    sin_mu, cos_mu = np.sin(mu), np.cos(mu)
    # one (blocks, grid) array per entry: a (3, blocks, grid) temporary is large enough that
    # malloc can map fresh pages for it on every call.  A plain .min(): a NaN anywhere makes
    # the certificate NaN, which never passes
    return float(_lambda_min(*(g - sin_mu * x - cos_mu * y for g, x, y in zip(gap, k1, k2))).min())


def helstrom_certificate(state: GenericState, j2: HalfInt, povm: PovmSpec,
                         grid: int = CERTIFICATE_GRID) -> float:
    _check_grid(grid)
    trig = signal_trig_blocks(state, half(j2))
    povm.validate({J: blk.dim for J, blk in trig.blocks.items()})
    return _certificate(trig, povm, grid)


def optimize_trig_blocks(trig: TrigBlocks, certify: bool = True,
                         grid: int = CERTIFICATE_GRID) -> OptimizationResult:
    """Per-block optimization of any trig-coefficient operator family."""
    _check_grid(grid)
    per_block = {}
    contributions = {}
    for J, blk in trig.blocks.items():
        per_block[J], contributions[J] = _block_optimum(J, blk)
    povm = PovmSpec(per_block)
    cert = _certificate(trig, povm, grid) if certify else None
    return OptimizationResult(
        povm=povm,
        fidelity=float(sum(contributions.values())),
        per_block_contributions=contributions,
        certificate_min_eigenvalue=cert,
    )


def max_fidelity(state: GenericState, j2: HalfInt, certify: bool = True) -> OptimizationResult:
    """Optimal POVM and maximal average fidelity for a given preparation."""
    return optimize_trig_blocks(signal_trig_blocks(state, half(j2)), certify=certify)


def two_term_nu(a: float) -> float:
    """Closed-form optimal estimate angle for the j2=1/2 two-term preparation.

    arctan[sqrt(3) (1 + 2 a^2) pi / (8 a sqrt(1 - a^2))]; at the boundary
    amplitudes the off-diagonal coupling vanishes and nu -> pi/2.  An a that
    is not a number in [0, 1] raises DomainError.
    """
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"a = {a!r} must lie in [0, 1]")
    if a == 0.0 or a == 1.0:
        return math.pi / 2.0
    return math.atan(math.sqrt(3.0) * (1.0 + 2.0 * a * a) * math.pi
                     / (8.0 * a * math.sqrt(1.0 - a * a)))


def _fidelities(m1: HalfInt, labels: tuple[HalfInt, ...], j2: HalfInt,
                rows: np.ndarray) -> np.ndarray:
    """max_fidelity(...).fidelity for each (n, len(labels)) amplitude row at once."""
    total = np.zeros(len(rows))
    for basis, g0, g1, g2 in _geometry(m1, labels, j2).values():
        x = rows[:, [labels.index(j1) for j1 in basis]]
        i, k = _UPPER[len(basis)]
        total += _block_value((x * x) @ g0.diagonal(), (x * x) @ g1.diagonal(),
                              *(x[:, i] * x[:, k] * g2[i, k]).T)[0]
    return total


def _amplitude_grid(step: float) -> np.ndarray:
    """0, step, 2 step, ... while below 1 (1e-9 slack for roundoff), then a = 1 exactly once."""
    return np.append(np.arange(math.ceil(1.0 / step - 1e-9)) * step, 1.0)


def optimize_state(j2: HalfInt, coarse_step: float = 0.001,
                   tol: float = 1e-8) -> tuple[float, HalfInt, OptimizationResult]:
    """Best preparation amplitude over the m1=0 two-term family vs the parallel state.

    One array pass values a coarse grid over a in [0, 1] (endpoints included);
    further passes shrink the bracket around the best point to at most tol,
    keeping the best value seen.  Returns (a_star, winning m1 sector, result).
    """
    j2 = half(j2)
    if j2.twice < 1:
        raise DomainError("j2 must be at least 1/2")
    if not (math.isfinite(coarse_step) and 0.0 < coarse_step <= 0.5):
        raise DomainError(f"coarse_step = {coarse_step!r} must lie in (0, 0.5]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol = {tol!r} must be finite and positive")
    m1, labels = half(0), (half(0), half(1))
    grid = _amplitude_grid(coarse_step)
    a_star, f_star, width = 0.0, -math.inf, math.inf
    while True:
        rows = np.stack([grid, np.sqrt(np.maximum(0.0, 1.0 - grid * grid))], axis=1)
        vals = _fidelities(m1, labels, j2, rows)
        best = int(np.argmax(vals))
        if vals[best] > f_star:
            a_star, f_star = float(grid[best]), vals[best]
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        # a bracket that roundoff no longer shrinks ends the search as well
        if hi - lo <= tol or hi - lo >= width:
            break
        width = hi - lo
        grid = np.linspace(lo, hi, _REFINE_POINTS)
    result0 = max_fidelity(GenericState.two_term(a_star), j2)

    result1 = max_fidelity(GenericState.parallel(), j2)
    # ties go to the m1=0 sector for deterministic output
    if result0.fidelity >= result1.fidelity - 1e-9:
        return a_star, half(0), result0
    return a_star, half(1), result1
