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
from numpy.polynomial.legendre import legvander

from .su2 import (
    DomainError,
    HalfInt,
    _highest_weight_vector,
    _racah,
    _signed_sqrt,
    _six_j,
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
# the oracle rotates max(1, this // d^2) samples per chunk, d the product dimension
_ORACLE_CHUNK_ELEMENTS = 2 ** 18


def check_samples(samples) -> None:
    """Raise DomainError unless samples is an int of at least 2, enough for a standard error."""
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise DomainError(f"samples = {samples!r} must be an int of at least 2")


def check_seed(seed) -> None:
    """Raise DomainError unless seed is an int (not a bool) of at least 0, so a run can be repeated."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed = {seed!r} must be an int (not a bool) of at least 0")


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


def coupling_structure(labels: tuple[HalfInt, ...],
                       j2: HalfInt) -> list[tuple[HalfInt, tuple[HalfInt, ...]]]:
    """Ordered (J, contributing j1 labels) pairs for a preparation's j1 labels."""
    j2 = half(j2)
    all_J = sorted({J for j1 in labels for J in couple_range(j1, j2)}, key=lambda J: J.twice)
    return [(J, tuple(j1 for j1 in labels if abs(j1.twice - j2.twice) <= J.twice <= j1.twice + j2.twice))
            for J in all_J]


@lru_cache(maxsize=None)
def _multipoles(m1: HalfInt, labels: tuple[HalfInt, ...],
                j2: HalfInt) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per J of coupling_structure(labels, j2): its basis and read-only (deg+1, d, d) stack c.

    Only the reference's multipoles of rank K <= deg = min(2 max j1, 2j2) survive the twirl,
    each carrying beta as P_K(cos beta) (Bartlett, Rudolph & Spekkens, RMP 79, 555 (2007)):
    the block at beta is a a^T o sum_K P_K(cos beta) c_K, where c_K(j1, j1') = (2K+1) (2J+1)
    <j2 j2 K 0|j2 j2> (-1)^(J+j2+j1') <j1' m1 K 0|j1 m1> {j1 j1' K; j2 j2 J} / sqrt((2j2+1)(2j1+1))
    is the square root of one exact ratio, computed for j1 <= j1' and mirrored.
    """
    tm1, tj2 = m1.twice, j2.twice
    deg = min(max(j.twice for j in labels), tj2)
    reference = [_racah(tj2, tj2, 2 * k, 0, tj2, tj2) for k in range(deg + 1)]
    table = {}
    for J, basis in coupling_structure(labels, j2):
        c = np.zeros((deg + 1, len(basis), len(basis)))
        for i, k in zip(*np.triu_indices(len(basis))):
            tj1, tj1p = basis[i].twice, basis[k].twice
            scale = ((-1) ** ((J.twice + tj2 + tj1p) // 2) * (J.twice + 1) ** 2, (tj2 + 1) * (tj1 + 1))
            for K in range(abs(tj1 - tj1p) // 2, min((tj1 + tj1p) // 2, deg) + 1):
                # each factor is a signed square (num, den), so c_K^2 is one exact ratio
                factors = (scale, ((2 * K + 1) ** 2, 1), reference[K], _racah(tj1p, tm1, 2 * K, 0, tj1, tm1),
                           _six_j(tj1, tj1p, 2 * K, tj2, tj2, J.twice))
                c[K, i, k] = c[K, k, i] = _signed_sqrt(*map(math.prod, zip(*factors)))
        c.flags.writeable = False  # cached: shared by every caller
        table[J] = (basis, c)
    return table


@lru_cache(maxsize=None)
def _classical_multipoles(m1: HalfInt,
                          labels: tuple[HalfInt, ...]) -> dict[HalfInt, tuple[tuple[HalfInt, ...], np.ndarray]]:
    """Per weight m of m_range(max label): its basis {j >= |m|} and read-only (deg+1, d, d) stack c.

    The classical limit's block m is a a^T o sum_K P_K(cos beta) c_K, deg = 2 max j, by the
    Clebsch-Gordan series of d^{j'}_{m m1} d^j_{m m1} = (-1)^(m-m1) d^{j'}_{m m1} d^j_{-m,-m1}:
    c_K(j', j) = (-1)^(m-m1) <j' m j -m|K 0> <j' m1 j -m1|K 0>, symmetric, one exact ratio's root.
    """
    tm1, deg = m1.twice, max(j.twice for j in labels)
    table = {}
    for m in m_range(HalfInt(deg)):
        basis = tuple(j for j in labels if abs(m.twice) <= j.twice)
        sign = ((-1) ** ((m.twice - tm1) // 2), 1)
        c = np.zeros((deg + 1, len(basis), len(basis)))
        for i, k in zip(*np.triu_indices(len(basis))):
            tj, tjp = basis[i].twice, basis[k].twice
            for K in range(abs(tj - tjp) // 2, (tj + tjp) // 2 + 1):
                factors = (sign, _racah(tj, m.twice, tjp, -m.twice, 2 * K, 0),
                           _racah(tj, tm1, tjp, -tm1, 2 * K, 0))
                c[K, i, k] = c[K, k, i] = _signed_sqrt(*map(math.prod, zip(*factors)))
        c.flags.writeable = False  # cached: shared by every caller
        table[m] = (basis, c)
    return table


def _m_index(j: HalfInt, m: HalfInt) -> int:
    """Position of weight m in m_range(j)."""
    return (j.twice + m.twice) // 2


def _table_at(state: GenericState, table: dict, beta: float) -> BlockedOperator:
    """A multipole table's blocks at beta: a a^T o sum_K P_K(cos beta) c_K, for _multipoles and
    _classical_multipoles alike; multiplied out before the sum, so each block is exactly symmetric."""
    out = BlockedOperator()
    for key, (basis, c) in table.items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        legendre = legvander(math.cos(beta), len(c) - 1)[0, :, None, None]
        out.blocks[key] = (basis, np.outer(amps, amps) * (legendre * c).sum(axis=0))
    return out


def averaged_state(state: GenericState, j2: HalfInt, beta: float) -> BlockedOperator:
    """Global-rotation average of the signal state at relative angle beta.

    Block (J)_{j1,j1'} = a_{j1} a_{j1'} sum_K P_K(cos beta) c_K(j1, j1') over _multipoles; trace 1.
    """
    j2 = half(j2)
    check_beta(beta)
    if j2.twice < 1:
        raise DomainError("j2 must be at least 1/2")
    return _table_at(state, _multipoles(state.m1, state.j_labels, j2), beta)


# ---------------------------------------------------------------------------
# Monte-Carlo Haar averaging oracle

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
                          samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo Haar average of U rho(beta) U^dag on the full product space.

    Returns (mean, stderr); stderr combines real and imaginary scatter per
    entry.  rho(beta) is pure, so each sample rotates the state vector v and
    adds v v^dag: O(samples * d^2) time for product dimension d.  Euler
    angles are drawn 20000 samples per RNG call, so the result is
    deterministic for fixed (seed, samples); a chunk of about 2**18 / d^2
    rotated rows V is summed as the two matrix products V^T conj(V) and
    (|V|^2)^T |V|^2, so memory stays O(d^2) plus the angles of one draw.
    """
    j2 = half(j2)
    check_samples(samples)
    check_seed(seed)
    check_beta(beta)
    w = _highest_weight_vector(j2, beta)
    dim = (j2.twice + 1) * sum(j1.twice + 1 for j1 in state.j_labels)
    chunk = max(1, _ORACLE_CHUNK_ELEMENTS // (dim * dim))
    rng = np.random.default_rng(seed)
    total = np.zeros((dim, dim), dtype=complex)
    total_sq = np.zeros((dim, dim))
    for start in range(0, samples, _ORACLE_BATCH):
        n = min(_ORACLE_BATCH, samples - start)
        al = rng.uniform(0.0, 2.0 * math.pi, n)
        bt = np.arccos(rng.uniform(-1.0, 1.0, n))
        gm = rng.uniform(0.0, 2.0 * math.pi, n)
        for lo in range(0, n, chunk):
            sl = slice(lo, lo + chunk)
            v = _rotated_signal(state, j2, w, al[sl], bt[sl], gm[sl])
            p = np.abs(v) ** 2  # |v v^dag|^2 = p p^T entrywise
            total += v.T @ v.conj()
            total_sq += p.T @ p
    mean = total / samples
    var = np.maximum(total_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


def coupled_basis_matrix(state: GenericState, j2: HalfInt) -> tuple[np.ndarray, list[tuple[HalfInt, HalfInt, HalfInt]]]:
    """Unitary from the product basis to the coupled |J M (j1)> basis.

    Returns (V, labels) with V[product_index, coupled_index] the CG coefficient
    and labels the coupled (J, M, j1) per column; the rows are the product
    basis (j1, m, m2) in the oracle's order.
    """
    j2 = half(j2)
    prod = [(j1, m, m2) for j1 in state.j_labels for m in m_range(j1) for m2 in m_range(j2)]
    labels = [(J, M, j1) for j1 in state.j_labels for J in couple_range(j1, j2) for M in m_range(J)]
    V = np.zeros((len(prod), len(labels)))
    for r, (j1, m, m2) in enumerate(prod):
        for c, (J, M, jc) in enumerate(labels):
            if jc == j1 and M.twice == m.twice + m2.twice:
                V[r, c] = clebsch_gordan(j1, m, j2, m2, J, M)
    return V, labels


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
            m1 = half(line[3:])
        elif line.startswith("j1="):
            parts = line.split()
            if len(parts) != 2 or not parts[1].startswith("a="):
                raise ValueError(f"malformed amplitude line: {raw!r}")
            jpart, apart = parts
            j1 = half(jpart[3:])
            if j1 in amps:
                raise ValueError(f"repeated j1={j1} line: {raw!r}")
            amps[j1] = float(apart[2:])
        else:
            raise ValueError(f"unrecognised line: {raw!r}")
    if m1 is None:
        raise ValueError("missing m1 line")
    return GenericState.from_dict(m1, amps)
