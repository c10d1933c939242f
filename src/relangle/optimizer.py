"""Optimal estimates, POVMs and the optimal preparation amplitude.

Every J-block of A(mu) = k0 + sin(mu) k1 + cos(mu) k2 is solved in closed
form.  Since A(pi - mu) - A(mu) = -2 cos(mu) k2, the best (nu, pi - nu) pair
measures in the mu-independent eigenbasis of k2 and earns
tr k0 + sin(nu) tr k1 + cos(nu) ||k2||_1, largest at
nu = atan2(tr k1, ||k2||_1); a 1-dim block is the same formula with a single
outcome.  No eigensolver is needed for the value.  Optimality of a reported POVM
is certified by scanning the minimum eigenvalue of Upsilon - A_mu over a fixed
1001-point mu grid, with Upsilon = sum_i A(mu_i) E_i from estimator._upsilon,
whose trace is the fidelity; every block is 1x1 or 2x2, so that eigenvalue is
the entry itself for a 1-dim block and (a + c)/2 - hypot((a - c)/2, b) for a
2-dim one, and no eigensolver is needed.  The solve and the certificate both work on the blocks of one
dimension at a time, as one (blocks, d, d) stack: one array pass per dimension,
with one batched eigh for the 2-dim eigenbases, gives the same floats as a pass
per block.  _search alone picks the optimal preparation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .su2 import DomainError, HalfInt, half
from .estimator import (
    BlockPovm,
    PovmSpec,
    TrigBlocks,
    _geometry,
    _lambda_min,
    _products,
    _sym_entries,
    _upsilon,
    signal_trig_blocks,
)
from .states import GenericState

CERTIFICATE_GRID = 1001
CERTIFICATE_PASS = -1e-9
# sin and cos of the certificate's mu grid, linspace(0, pi, CERTIFICATE_GRID), read-only
_SIN_MU, _COS_MU = (f(np.linspace(0.0, math.pi, CERTIFICATE_GRID)) for f in (np.sin, np.cos))
_SIN_MU.flags.writeable = _COS_MU.flags.writeable = False
# (a, b, c) places of k2 in the solved 1- and 2-dim blocks, built once
_UPPER = {1: np.triu_indices(1), 2: np.triu_indices(2)}
_IDENTITY_1 = np.broadcast_to(1.0, (1, 1, 1))  # every 1-dim block's one element, read-only


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


def _check_dims(bases, stacks) -> None:
    big = [(places[0], d) for d, (places, _) in stacks.items() if d > 2]
    if big:
        place, d = min(big)
        raise UnsupportedBlockError(f"block J={list(bases)[place]} has dimension {d}; "
                                    "only dimensions <= 2 are solved")


def _block_value(t0, t1, a, b=0.0, c=0.0):
    """tr k0 + hypot(t1, ||k2||_1), t1 = max(tr k1, 0), and ||k2||_1 of k2 = [[a, b], [b, c]]."""
    t1 = np.maximum(t1, 0.0)
    norm = np.maximum(np.abs(a + c), np.hypot(a - c, 2.0 * b))  # ||k2||_1; 1-dim: b = c = 0
    return t0 + np.hypot(t1, norm), t1, norm


def _contributions(bases, stacks) -> tuple[list[float], list]:
    """Each block's value in J order from a family's or _products' stacks, and per dimension
    (d, places, k2, t1, ||k2||_1) for nu; UnsupportedBlockError names the first J of dimension > 2."""
    _check_dims(bases, stacks)
    values, passes = np.zeros(len(bases)), []
    for d, (places, (k0, k1, k2)) in stacks.items():
        contrib, t1, norm = _block_value(k0.trace(axis1=1, axis2=2), k1.trace(axis1=1, axis2=2),
                                         *(k2[:, i, k] for i, k in zip(*_UPPER[d])))
        values[list(places)] = contrib
        passes.append((d, places, k2, t1, norm))
    return values.tolist(), passes


def _solve(trig: TrigBlocks) -> tuple[dict[HalfInt, BlockPovm], dict[HalfInt, float]]:
    """Best measurement and contribution of every block: the k2 eigenvectors with positive
    eigenvalue take nu, the rest pi - nu; a 1-dim block has the one outcome nu or pi - nu."""
    values, passes = _contributions(trig.bases, trig.stacks)
    povms = [None] * len(values)
    for d, places, k2, t1, norm in passes:
        nu = np.arctan2(t1, norm)
        if d == 1:
            mus = np.where(k2[:, 0, 0] > 0.0, nu, math.pi - nu)[:, None]
            elements = [_IDENTITY_1] * len(places)
        else:
            # a batched eigh makes the LAPACK call that eigh on each block alone would
            lam, vecs = np.linalg.eigh(k2)
            pos = vecs * (lam > 0.0)[:, None, :]
            proj_nu = pos @ pos.swapaxes(1, 2)
            mus = np.array([nu, math.pi - nu]).T
            elements = np.array([proj_nu, np.eye(2) - proj_nu]).swapaxes(0, 1)
        for place, m, e in zip(places, mus, elements):
            povms[place] = BlockPovm(m, e)
    return dict(zip(trig.bases, povms)), dict(zip(trig.bases, values))


def _certificate(trig: TrigBlocks, povm: PovmSpec) -> float:
    """Minimum eigenvalue of Upsilon - A_mu over all blocks and the mu grid, a pass per dimension."""
    _check_dims(trig.bases, trig.stacks)
    Js = list(trig.bases)
    lows = []
    for d, (places, stack) in trig.stacks.items():
        gap = _upsilon(stack, [povm.per_block[Js[place]] for place in places]) - stack[0]
        if d == 1:  # lambda_min of [x] is x
            low = gap[:, 0] - _SIN_MU * stack[1, :, 0] - _COS_MU * stack[2, :, 0]
        else:
            # one (blocks, grid) array per entry, as small as a per-block scan keeps them
            entries = zip(*(_sym_entries(m) for m in (gap, stack[1], stack[2])))
            low = _lambda_min(*(g[:, None] - _SIN_MU * x[:, None] - _COS_MU * y[:, None]
                                for g, x, y in entries))
        lows.append(low.min())
    # np.min, not min: a NaN anywhere makes the certificate NaN, which never passes
    return float(np.min(lows))


def helstrom_certificate(state: GenericState, j2: HalfInt, povm: PovmSpec) -> float:
    """Minimum of lambda_min(Upsilon - A(mu)) over every block and the mu grid, with
    Upsilon = sum_i A(mu_i) E_i: the POVM is optimal iff Upsilon - A(mu) >= 0 at every mu
    (Helstrom), and passes at CERTIFICATE_PASS.  The POVM is validated as fidelity validates
    it; a block of dimension 3 or more raises UnsupportedBlockError."""
    trig = signal_trig_blocks(state, half(j2))
    povm.validate({J: len(basis) for J, basis in trig.bases.items()})
    return _certificate(trig, povm)


def optimize_trig_blocks(trig: TrigBlocks, certify: bool = True) -> OptimizationResult:
    """Per-block optimization of any trig-coefficient operator family."""
    per_block, contributions = _solve(trig)
    povm = PovmSpec(per_block)
    cert = _certificate(trig, povm) if certify else None
    return OptimizationResult(
        povm=povm,
        fidelity=float(sum(contributions.values())),
        per_block_contributions=contributions,
        certificate_min_eigenvalue=cert,
    )


def max_fidelity(state: GenericState, j2: HalfInt, certify: bool = True) -> OptimizationResult:
    """Optimal POVM and maximal average fidelity for a given preparation."""
    return optimize_trig_blocks(signal_trig_blocks(state, half(j2)), certify=certify)


def _max_fidelity_value(state: GenericState, j2: HalfInt) -> float:
    """max_fidelity(state, j2).fidelity, the same float, from the cached geometry's unchecked
    products: a checked state on finite, exactly symmetric coefficients needs no family."""
    bases, geometry = _geometry(state.m1, state.j_labels, half(j2))
    return float(sum(_contributions(bases, _products(state.amplitude_vector, geometry))[0]))


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


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """The real parts of np.roots([a, b, c]), a complex pair's once, free of cancellation."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    q = -(b + math.copysign(math.sqrt(max(disc, 0.0)), b)) / 2.0  # the roots are q/a and c/q
    # a complex pair's real part is q/a = -b/2a; q = 0 only if b = c = 0, the double root 0
    return [q / a] if disc < 0.0 or q == 0.0 else [q / a, c / q]


def _two_term_optimum(j2: HalfInt) -> float:
    """The amplitude a* of a|0 0> + b|1 0> that maximises F at j2, in closed form.

    The 1-dim blocks hold label 1 alone and add b^2 times their value.  The 2-dim block has
    tr k1 > 0 and a k2 with zero diagonal, by parity (<j 0 1 0|j 0> = 0), so its ||k2||_1 is
    2ab|g2_01|.  With s = (b/a)^2, F(s) = (l0 + l1 s + sqrt(q(s)))/(1 + s), where
    q = (tr k1)^2 + ||k2||_1^2 = q0 + q1 s + q2 s^2, and F'(s) = 0 iff
    2(l1 - l0) sqrt(q) = (2 q0 - q1) + (q1 - 2 q2) s: a quadratic in s once squared.  Its
    closed-form roots, a = 1 and a = 0 are then the only candidates, and the best is the maximum.
    """
    stacks = _geometry(half(0), (half(0), half(1)), j2)[1]
    g0, g1, g2 = stacks[2][2][:, 0].tolist()
    l0, l1 = g0[0][0], g0[1][1] + float(_block_value(*stacks[1][2][..., 0, 0])[0].sum())
    t0, t1, g = g1[0][0], g1[1][1], g2[0][1]
    q0, q1, q2 = t0 * t0, 2.0 * t0 * t1 + 4.0 * (g * g), t1 * t1
    dl2, alpha, beta = 4.0 * ((l1 - l0) * (l1 - l0)), 2.0 * q0 - q1, q1 - 2.0 * q2
    roots = _quadratic_roots(dl2 * q2 - beta * beta, dl2 * q1 - 2.0 * alpha * beta,
                             dl2 * q0 - alpha * alpha)

    def f(a2, b2):  # F at a^2 = a2, b^2 = b2
        return a2 * l0 + b2 * l1 + math.sqrt(a2 * a2 * q0 + a2 * b2 * q1 + b2 * b2 * q2)

    # a complex or negative root, clamped, is still an amplitude of the family: never above the maximum
    candidates = [(1.0, 0.0), (0.0, 1.0)] + [(1.0 / (1.0 + s), s / (1.0 + s))
                                             for s in (max(r, 0.0) for r in roots)]
    return math.sqrt(max(candidates, key=lambda ab: f(*ab))[0])


def _search(j2: HalfInt) -> tuple[float, HalfInt, GenericState, float, float]:
    """(a_star, winning m1 sector, its state, its fidelity, the parallel state's fidelity) at j2,
    with a_star the closed-form maximum over the two-term family; the two-term state at a_star
    wins unless the parallel state beats it by more than 1e-9.  Nothing is solved or certified."""
    j2 = half(j2)
    if j2.twice < 1:
        raise DomainError("j2 must be at least 1/2")
    a_star = _two_term_optimum(j2)
    two_term, parallel = GenericState.two_term(a_star), GenericState.parallel()
    f0, f_par = _max_fidelity_value(two_term, j2), _max_fidelity_value(parallel, j2)
    if f0 >= f_par - 1e-9:
        return a_star, half(0), two_term, f0, f_par
    return a_star, half(1), parallel, f_par, f_par


def optimize_state(j2: HalfInt) -> tuple[float, HalfInt, OptimizationResult]:
    """Best preparation amplitude over the m1=0 two-term family vs the parallel state:
    (a_star, winning m1 sector, result), where only the winner is solved and certified."""
    a_star, sector, state, _, _ = _search(j2)
    return a_star, sector, max_fidelity(state, j2)
