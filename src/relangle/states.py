"""Preparations and the rotation-averaged, block-diagonal signal state.

The sender keeps a single magnetic sector m1 and real amplitudes over the
angular momenta j1; averaging over the unknown global rotation leaves a
density operator that is block diagonal in the total angular momentum J,
with coherences only across repeated J (labelled by j1).  Blocks here carry
the M-degeneracy summed out, so the block traces add up to 1 and per-block
POVMs are normalised on the reduced space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .su2 import (
    DomainError,
    HalfInt,
    _highest_weight_vector,
    _racah,
    check_jm,
    clebsch_gordan,
    couple_range,
    half,
    m_range,
    wigner_d_matrix,
)

_NORM_TOL = 1e-12
_BETA_TOL = 1e-12
# rotations drawn per RNG call by the oracle; fixes its sample stream
_ORACLE_BATCH = 20000
# per-sample outer-product entries the oracle holds at once
_ORACLE_CHUNK_ELEMENTS = 2 ** 18


def check_samples(samples) -> None:
    """Raise DomainError unless samples is an int of at least 1."""
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise DomainError(f"samples = {samples!r} must be an int of at least 1")


def check_beta(beta: float) -> None:
    """Raise DomainError unless beta is a finite angle in [0, pi]."""
    if not math.isfinite(beta):
        raise DomainError(f"beta = {beta!r} is not finite")
    if not 0.0 <= beta <= math.pi + _BETA_TOL:
        raise DomainError(f"beta = {beta} outside [0, pi]")


@dataclass(frozen=True)
class GenericState:
    """Fixed-m1 preparation: real amplitudes over j1 labels, unit norm."""

    m1: HalfInt
    amplitudes: tuple[tuple[HalfInt, float], ...]

    def __post_init__(self):
        if self.m1.twice < 0:
            # the m1 -> -m1 sectors are physically equivalent; only m1 >= 0 is exposed
            raise DomainError("only m1 >= 0 sectors are supported")
        seen = set()
        for j1, a in self.amplitudes:
            if isinstance(a, complex):
                raise DomainError("amplitudes must be real")
            if not math.isfinite(a):
                raise DomainError(f"amplitude of j1={j1} is not finite: {a!r}")
            check_jm(j1, self.m1)
            if j1 in seen:
                raise DomainError(f"duplicate j1 label {j1}")
            seen.add(j1)
        norm = sum(a * a for _, a in self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(f"amplitudes not normalised: sum a^2 = {norm!r}")

    @classmethod
    def from_dict(cls, m1, amplitudes: dict) -> "GenericState":
        m1 = half(m1)
        items = sorted(((half(j1), float(a)) for j1, a in amplitudes.items()),
                       key=lambda p: p[0].twice)
        return cls(m1, tuple(items))

    @classmethod
    def coherent(cls, j1) -> "GenericState":
        """Spin coherent preparation |j1, m1=j1>."""
        j1 = half(j1)
        return cls.from_dict(j1, {j1: 1.0})

    @classmethod
    def parallel(cls) -> "GenericState":
        """Two parallel spin-1/2: the spin-1 coherent state."""
        return cls.coherent(1)

    @classmethod
    def two_term(cls, a: float) -> "GenericState":
        """m1=0 family a|0 0> + sqrt(1-a^2)|1 0>."""
        if not 0.0 <= a <= 1.0:
            raise DomainError("a must lie in [0, 1]")
        return cls.from_dict(0, {0: a, 1: math.sqrt(max(0.0, 1.0 - a * a))})

    @classmethod
    def antiparallel(cls) -> "GenericState":
        return cls.two_term(1.0 / math.sqrt(2.0))

    @property
    def j_labels(self) -> tuple[HalfInt, ...]:
        return tuple(j1 for j1, _ in self.amplitudes)

    @property
    def amplitude_vector(self) -> np.ndarray:
        return np.array([a for _, a in self.amplitudes])

    def amplitude(self, j1) -> float:
        j1 = half(j1)
        return next((a for jj, a in self.amplitudes if jj == j1), 0.0)

    def is_coherent(self) -> bool:
        return len(self.amplitudes) == 1 and self.amplitudes[0][0] == self.m1


@dataclass
class BlockedOperator:
    """Direct sum over total-J sectors; each block is real symmetric over j1 labels."""

    blocks: dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]] = field(default_factory=dict)

    def trace(self) -> float:
        return float(sum(np.trace(m) for _, m in self.blocks.values()))

    def block(self, J) -> np.ndarray:
        return self.blocks[half(J)][1]

    def basis(self, J) -> tuple[HalfInt, ...]:
        return self.blocks[half(J)][0]

    def min_eigenvalue(self) -> float:
        return min((float(np.linalg.eigvalsh(mat).min()) for _, mat in self.blocks.values()),
                   default=math.inf)

    def max_symmetry_defect(self) -> float:
        return max(float(np.abs(m - m.T).max()) for _, m in self.blocks.values())


def coupling_structure(state: GenericState | tuple[HalfInt, ...],
                       j2: HalfInt) -> list[tuple[HalfInt, tuple[HalfInt, ...]]]:
    """Ordered (J, contributing j1 labels) pairs for a preparation or its j1 labels."""
    j2 = half(j2)
    js = state.j_labels if isinstance(state, GenericState) else state
    all_J = sorted({J for j1 in js for J in couple_range(j1, j2)}, key=lambda J: J.twice)
    return [(J, tuple(j1 for j1 in js if abs(j1.twice - j2.twice) <= J.twice <= j1.twice + j2.twice))
            for J in all_J]


def _cg_column(j1: HalfInt, m1: HalfInt, j2: HalfInt, J: HalfInt) -> np.ndarray:
    """C^{J, m1+m2}_{j1 m1, j2 m2} over m2 = -j2..j2 (0 outside |M| <= J)."""
    return np.array([_racah(j1.twice, m1.twice, j2.twice, t2, J.twice, m1.twice + t2)
                     if abs(m1.twice + t2) <= J.twice else 0.0
                     for t2 in range(-j2.twice, j2.twice + 1, 2)])


@lru_cache(maxsize=None)
def _cg_table(m1: HalfInt, labels: tuple[HalfInt, ...],
              j2: HalfInt) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per J of coupling_structure(labels, j2): its basis and the (dim, 2j2+1) CG columns."""
    return {J: (basis, np.array([_cg_column(j1, m1, j2, J) for j1 in basis]))
            for J, basis in coupling_structure(labels, j2)}


def _cg_contract(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_n w(n) cols[i, n] cols[k, n] per row of w; on a _cg_table block n runs over m2."""
    # multiplied out before the sum, so each (dim, dim) result is exactly symmetric
    return (cols[:, None, :] * cols[None, :, :] * w[..., None, None, :]).sum(axis=-1)


def _m_index(j: HalfInt, m: HalfInt) -> int:
    """Position of weight m in m_range(j)."""
    return (j.twice + m.twice) // 2


def averaged_state(state: GenericState, j2: HalfInt, beta: float) -> BlockedOperator:
    """Global-rotation average of the signal state at relative angle beta.

    Block (J)_{j1,j1'} = a_{j1} a_{j1'} sum_{m2} (d^{j2}_{m2 j2}(beta))^2
    C^{J M}_{j1 m1, j2 m2} C^{J M}_{j1' m1, j2 m2}, M = m1+m2.  Total trace 1.
    """
    j2 = half(j2)
    check_beta(beta)
    if j2.twice < 1:
        raise DomainError("j2 must be at least 1/2")
    dsq = _highest_weight_vector(j2, beta) ** 2
    out = BlockedOperator()
    for J, (basis, cols) in _cg_table(state.m1, state.j_labels, j2).items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        out.blocks[J] = (basis, np.outer(amps, amps) * _cg_contract(cols, dsq))
    return out


def coherent_overlap_distribution(state: GenericState, j2: HalfInt, beta: float) -> dict[HalfInt, float]:
    """Outcome probabilities p_J(beta) for a coherent preparation (each J once)."""
    if not state.is_coherent():
        raise DomainError("overlap distribution is defined for coherent preparations only")
    rho = averaged_state(state, j2, beta)
    return {J: float(mat[0, 0]) for J, (basis, mat) in rho.blocks.items()}


# ---------------------------------------------------------------------------
# Monte-Carlo Haar averaging oracle

def product_basis_labels(state: GenericState, j2: HalfInt) -> list[tuple[HalfInt, HalfInt, HalfInt]]:
    """(j1, m, m2) labels of the embedding product space, row order of the oracle."""
    j2 = half(j2)
    return [(j1, m, m2) for j1 in state.j_labels for m in m_range(j1) for m2 in m_range(j2)]


def signal_density(state: GenericState, j2: HalfInt, beta: float) -> np.ndarray:
    """Unaveraged |Psi(beta)><Psi(beta)| on the embedding product space."""
    j2 = half(j2)
    check_beta(beta)
    vec2 = _highest_weight_vector(j2, beta)
    parts = []
    for j1, a in state.amplitudes:
        v1 = np.zeros(j1.twice + 1)
        v1[_m_index(j1, state.m1)] = a
        parts.append(np.kron(v1, vec2))
    psi = np.concatenate(parts)
    return np.outer(psi, psi)


def _rotated_signal(state: GenericState, j2: HalfInt, w: np.ndarray,
                    alphas: np.ndarray, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Rows (D1 (x) D2)(alpha, beta, gamma) |Psi>, shape (n, product dim).

    |Psi> = sum_{j1} a_{j1} |j1 m1> (x) w, so each sample needs one column
    D^{j1}[:, m1] per label and one matrix-vector product D^{j2} w, with
    D^j_{m'm} = exp(-i alpha m') d^j_{m'm}(beta) exp(-i gamma m).
    """
    ms2 = np.array([float(m) for m in m_range(j2)])
    w_rot = np.einsum("sij,sj->si", wigner_d_matrix(j2, betas),
                      np.exp(-1j * np.outer(gammas, ms2)) * w)
    w_rot *= np.exp(-1j * np.outer(alphas, ms2))
    m1 = state.m1
    parts = []
    for j1, a in state.amplitudes:
        ms1 = np.array([float(m) for m in m_range(j1)])
        col = wigner_d_matrix(j1, betas)[:, :, _m_index(j1, m1)]
        col = a * np.exp(-1j * (np.outer(alphas, ms1) + float(m1) * gammas[:, None])) * col
        parts.append((col[:, :, None] * w_rot[:, None, :]).reshape(betas.size, -1))
    return np.concatenate(parts, axis=1)


def averaged_state_oracle(state: GenericState, j2: HalfInt, beta: float,
                          samples: int, seed: int,
                          fixed_rotation: tuple[float, float, float] | None = None,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Haar average of U rho(beta) U^dag on the full product space.

    Returns (mean, stderr); stderr combines real and imaginary scatter per
    entry.  rho(beta) is pure, so each sample rotates the state vector v and
    adds v v^dag: O(samples * d^2) time for product dimension d.  Euler
    angles are drawn 20000 samples per RNG call, so the result is
    deterministic for fixed (seed, samples); the outer products are formed
    about 2**18 entries at a time, so memory stays O(d^2) plus the angles of
    one draw.  With fixed_rotation the sampler is bypassed (identity check
    support).
    """
    j2 = half(j2)
    check_samples(samples)
    check_beta(beta)
    w = _highest_weight_vector(j2, beta)
    dim = (j2.twice + 1) * sum(j1.twice + 1 for j1 in state.j_labels)
    chunk = max(1, _ORACLE_CHUNK_ELEMENTS // (dim * dim))
    rng = np.random.default_rng(seed)
    total = np.zeros((dim, dim), dtype=complex)
    total_sq = np.zeros((dim, dim))
    done = 0
    while done < samples:
        n = min(_ORACLE_BATCH, samples - done)
        if fixed_rotation is not None:
            al, bt, gm = (np.full(n, float(x)) for x in fixed_rotation)
        else:
            al = rng.uniform(0.0, 2.0 * math.pi, n)
            bt = np.arccos(rng.uniform(-1.0, 1.0, n))
            gm = rng.uniform(0.0, 2.0 * math.pi, n)
        for lo in range(0, n, chunk):
            sl = slice(lo, lo + chunk)
            v = _rotated_signal(state, j2, w, al[sl], bt[sl], gm[sl])
            rotated = v[:, :, None] * v[:, None, :].conj()
            total += rotated.sum(axis=0)
            total_sq += (np.abs(rotated) ** 2).sum(axis=0)
        done += n
    mean = total / samples
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


def coupled_basis_matrix(state: GenericState, j2: HalfInt) -> tuple[np.ndarray, list[tuple[HalfInt, HalfInt, HalfInt]]]:
    """Unitary from the product basis to the coupled |J M (j1)> basis.

    Returns (V, labels) with V[product_index, coupled_index] the CG coefficient
    and labels the coupled (J, M, j1) per column.
    """
    j2 = half(j2)
    prod = product_basis_labels(state, j2)
    labels = [(J, M, j1) for j1 in state.j_labels for J in couple_range(j1, j2) for M in m_range(J)]
    V = np.zeros((len(prod), len(labels)))
    for r, (j1, m, m2) in enumerate(prod):
        for c, (J, M, jc) in enumerate(labels):
            if jc == j1 and M.twice == m.twice + m2.twice:
                V[r, c] = clebsch_gordan(j1, m, j2, m2, J, M)
    return V, labels


def blocks_from_full_matrix(state: GenericState, j2: HalfInt, full: np.ndarray) -> BlockedOperator:
    """Reduce a full product-space operator to M-summed (J, j1, j1') blocks."""
    V, labels = coupled_basis_matrix(state, j2)
    coupled = V.T @ full.real @ V
    cols: dict[tuple[HalfInt, HalfInt], list[int]] = {}  # per (J, j1), in ascending M
    for c, (J, _, j1) in enumerate(labels):
        cols.setdefault((J, j1), []).append(c)
    out = BlockedOperator()
    for J, basis in coupling_structure(state, j2):
        # sum over M of the (J M j1, J M j1') entries: the diagonal of each sub-block
        out.blocks[J] = (basis, np.array([[np.trace(coupled[np.ix_(cols[J, a], cols[J, b])])
                                           for b in basis] for a in basis]))
    return out


# ---------------------------------------------------------------------------
# plain-text serialization

def state_to_text(state: GenericState) -> str:
    lines = [f"m1={state.m1}"] + [f"j1={j1} a={a!r}" for j1, a in state.amplitudes]
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> GenericState:
    m1 = None
    amps: dict[HalfInt, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("m1="):
            if m1 is not None:
                raise ValueError(f"repeated m1 line: {raw!r}")
            m1 = HalfInt.parse(line[3:])
        elif line.startswith("j1="):
            jpart, apart = line.split()
            if not apart.startswith("a="):
                raise ValueError(f"malformed amplitude line: {raw!r}")
            j1 = HalfInt.parse(jpart[3:])
            if j1 in amps:
                raise ValueError(f"repeated j1={j1} line: {raw!r}")
            amps[j1] = float(apart[2:])
        else:
            raise ValueError(f"unrecognised line: {raw!r}")
    if m1 is None:
        raise ValueError("missing m1 line")
    return GenericState.from_dict(m1, amps)
