"""Utility-weighted measurement operators and average-fidelity evaluation.

Every block entry of the measurement operator A_mu is of the form
c0 + c1*sin(mu) + c2*cos(mu); the rotation-averaged signal is a Legendre
series in cos(beta) (states._multipoles), and the three coefficients are
closed-form moments of its terms.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .su2 import DomainError, HalfInt, half
from .states import GenericState, _multipoles, check_samples, check_seed, coupling_structure

_PSD_TOL = 1e-12
# Legendre-term entries of one fidelity_montecarlo chunk, so 2**15 // (deg+1) samples.  With
# every per-sample buffer, about 90 bytes a sample at deg 2 and four outcomes, that is about
# 1 MB, in L2; in process 2**15 ran faster than 2**13, 2**14 and 2**16.
_MC_CHUNK_ELEMENTS = 2 ** 15


class StructureMismatchError(ValueError):
    """POVM block layout does not match the signal's coupling structure."""


@dataclass(frozen=True)
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


def _groups(keys) -> dict:
    """The places of each distinct key, in the order the keys first appear."""
    out: dict = {}
    for place, key in enumerate(keys):
        out.setdefault(key, []).append(place)
    return out


@dataclass(frozen=True, eq=False)
class TrigBlocks:
    """Direct sum of trigonometric-in-mu operator families A(mu) = k0 + sin(mu) k1 + cos(mu) k2.

    ``bases`` maps each J, in J order, to its basis.  ``stacks``, the one store of the
    coefficients, holds per block dimension d the places of its blocks in that order and
    one (3, n, d, d) array of their k0, k1 and k2.  Every way of making a family checks
    it and keeps a read-only copy: stacks that do not hold each block once at its
    dimension, or hold no block, raise StructureMismatchError; a complex coefficient
    TypeError; a non-finite one DomainError and an asymmetric one StructureMismatchError,
    each naming the first such J.
    """

    bases: Mapping[HalfInt, tuple[HalfInt, ...]]
    stacks: Mapping[int, tuple[tuple[int, ...], np.ndarray]]

    def __post_init__(self):
        Js, dims = list(self.bases), [len(basis) for basis in self.bases.values()]
        places = sorted(p for ps, _ in self.stacks.values() for p in ps)
        if not Js or places != list(range(len(Js))):
            raise StructureMismatchError(f"stacks hold the places {places} of {len(Js)} blocks: "
                                         "a family needs at least one block, each once")
        stacks = {}
        for d, (ps, stack) in self.stacks.items():
            stack = np.asarray(stack).astype(float, casting="same_kind")  # the family's own copy
            stack.flags.writeable = False
            if stack.shape != (3, len(ps), d, d) or any(dims[p] != d for p in ps):
                raise StructureMismatchError(f"stack of shape {stack.shape} holds blocks of "
                                             f"dimensions {[dims[p] for p in ps]}")
            stacks[d] = (tuple(ps), stack)
        checks = ((DomainError, "a non-finite", np.isfinite),
                  (StructureMismatchError, "an asymmetric", lambda s: s == s.swapaxes(2, 3)))
        for error, what, passes in checks:
            bad = [(ps, stack) for ps, stack in stacks.values() if not passes(stack).all()]
            if bad:
                place = min(ps[np.argmin(passes(stack).all(axis=(0, 2, 3)))] for ps, stack in bad)
                raise error(f"block J={Js[place]} has {what} k0, k1 or k2 coefficient")
        object.__setattr__(self, "bases", MappingProxyType(dict(self.bases)))
        object.__setattr__(self, "stacks", MappingProxyType(stacks))

    @classmethod
    def of(cls, blocks: Mapping[HalfInt, TrigBlock]) -> "TrigBlocks":
        """The family of these blocks, in the mapping's order; a block whose k0, k1 or k2 is
        not (dim, dim) raises StructureMismatchError naming it."""
        for J, blk in blocks.items():
            shapes = [np.shape(k) for k in (blk.k0, blk.k1, blk.k2)]
            if any(shape != (blk.dim, blk.dim) for shape in shapes):
                raise StructureMismatchError(f"block J={J} of dimension {blk.dim} has "
                                             f"coefficients of shapes {shapes}")
        ordered = list(blocks.values())
        return cls({J: blk.basis for J, blk in blocks.items()},
                   {d: (tuple(places), np.array([[ordered[p].k0, ordered[p].k1, ordered[p].k2]
                                                 for p in places]).swapaxes(0, 1))
                    for d, places in _groups(blk.dim for blk in ordered).items()})

    @cached_property
    def blocks(self) -> Mapping[HalfInt, TrigBlock]:
        """Each J's block, read-only; its k0, k1 and k2 are views into the stacks."""
        views = sorted((place, stack[:, p]) for places, stack in self.stacks.values()
                       for p, place in enumerate(places))
        return MappingProxyType({J: TrigBlock(basis, *view)
                                 for (J, basis), (_, view) in zip(self.bases.items(), views)})


def _table_geometry(table: Mapping, js: tuple[HalfInt, ...]):
    """A multipole table's amplitude-independent A(mu) coefficients, grouped by block dimension.

    Returns the basis of each block in the table's order and, per block dimension d, the
    places of its blocks in that order, their (n, d) label positions in js and their
    read-only (3, n, d, d) k0, k1, k2 coefficients.  Against the sin(beta)/2 prior and
    the utility (1 + cos mu cos beta + sin mu sin beta)/2, the multipole stack c gives
    k0 = c_0/2, k2 = c_1/6 and k1 = sum_K q_K c_K, q_K = (1/4) int sqrt(1 - u^2) P_K(u) du:
    0 for odd K, and -(pi/8) [binom(2n, n) / 4^n]^2 / ((2n - 1)(n + 1)) for K = 2n.
    """
    block_bases, multipoles = zip(*table.values())
    w = np.zeros((3, len(multipoles[0])))  # rows k0, k1, k2 over K
    w[0, 0], w[2, 1:2] = 0.5, 1.0 / 6.0
    w[1, ::2] = [-math.pi / 8.0 * (math.comb(2 * n, n) / 4 ** n) ** 2 / ((2 * n - 1) * (n + 1))
                 for n in range(w[1, ::2].size)]
    stacks = {}
    for d, places in _groups(map(len, block_bases)).items():
        idx = np.array([[js.index(j1) for j1 in block_bases[p]] for p in places])
        # multiplied out before the sum over K, so each (d, d) coefficient is exactly symmetric
        coeffs = (w[:, None, :, None, None] * np.array([multipoles[p] for p in places])).sum(axis=2)
        for arr in (idx, coeffs):
            arr.flags.writeable = False  # _geometry caches them: shared by every caller
        stacks[d] = (tuple(places), idx, coeffs)
    return dict(zip(table, block_bases)), stacks


@lru_cache(maxsize=None)
def _geometry(m1: HalfInt, js: tuple[HalfInt, ...], j2: HalfInt):
    """_table_geometry of the rotation-averaged signal's multipole table, keyed by J."""
    return _table_geometry(_multipoles(m1, js, j2), js)


def _products(amps: np.ndarray, geometry) -> dict:
    """A _table_geometry's unchecked stacks d -> (places, (3, n, d, d) k0, k1, k2) for one row of
    amplitudes over the geometry's labels: a family's stacks, before TrigBlocks checks them."""
    stacks = {}
    for d, (places, idx, coeffs) in geometry.items():
        x = amps[idx]  # (n, d)
        stacks[d] = (places, (x[:, :, None] * x[:, None, :]) * coeffs)
    return stacks


def signal_trig_blocks(state: GenericState, j2: HalfInt) -> TrigBlocks:
    """A(mu) coefficient blocks for the rotation-averaged signal state, from the cached geometry."""
    bases, geometry = _geometry(state.m1, state.j_labels, half(j2))
    return TrigBlocks(bases, _products(state.amplitude_vector, geometry))


def _lambda_min(a, b, c):
    """Smaller eigenvalue of [[a, b], [b, c]], elementwise; a 1-dim block [x] is (x, 0, x)."""
    return (a + c) / 2.0 - np.hypot((a - c) / 2.0, b)


def _sym_entries(m: np.ndarray):
    """(a, b, c) of each trailing 1- or 2-dim block, off-diagonal from the lower triangle as
    eigvalsh reads it."""
    return m[..., 0, 0], m[..., -1, 0] if m.shape[-1] == 2 else 0.0, m[..., -1, -1]


# ---------------------------------------------------------------------------
# POVM descriptions

@dataclass(eq=False)
class BlockPovm:
    """Measurement on one J block: outcome i has estimate mus[i] and element elements[i]."""

    mus: np.ndarray  # (k,)
    elements: np.ndarray  # (k, d, d)

    def __post_init__(self):
        # float arrays, from lists too; complex or non-numeric input raises TypeError
        self.mus = np.asarray(self.mus).astype(float, casting="same_kind", copy=False)
        self.elements = np.asarray(self.elements).astype(float, casting="same_kind", copy=False)


@dataclass
class PovmSpec:
    """Per-J-sector measurement: one BlockPovm per block."""

    per_block: dict[HalfInt, BlockPovm]

    def elements(self, J: HalfInt, dim: int) -> list[tuple[float, np.ndarray]]:
        """(estimate, element) pairs of block J; the elements carry dim themselves."""
        return list(zip(self.per_block[J].mus, self.per_block[J].elements))

    def validate(self, dims: dict[HalfInt, int]) -> None:
        """Check shapes, finiteness, per-block completeness and positive semidefiniteness.

        Blocks of one outcome count and dimension are checked together, in
        one array pass.  If anything fails, the blocks are checked one by one
        in J order, so that the error names the first failing block and the
        first check it fails.
        """
        if set(self.per_block) != set(dims):
            raise StructureMismatchError("POVM blocks do not match the coupling structure")
        blocks = [self.per_block[J] for J in dims]
        shapes = [block.elements.shape for block in blocks]
        if (all(block.mus.ndim == 1 and shape == (len(block.mus), dim, dim)
                for block, shape, dim in zip(blocks, shapes, dims.values()))
                and not any(_failed_check([blocks[p] for p in places])
                            for places in _groups(shapes).values())):
            return
        for J, dim in dims.items():
            mus, els = self.per_block[J].mus, self.per_block[J].elements
            if mus.ndim != 1 or els.shape != (len(mus), dim, dim):
                raise StructureMismatchError(f"block J={J} of dimension {dim} has estimates "
                                             f"of shape {mus.shape}, elements {els.shape}")
            failed = _failed_check([self.per_block[J]])
            if failed:
                error, message = failed
                raise error(message.format(J=J))


def _failed_check(blocks: list[BlockPovm]) -> tuple[type, str] | None:
    """The error and message of the first check that some of these same-shape blocks fail."""
    mus = np.array([block.mus for block in blocks])
    els = np.array([block.elements for block in blocks])
    if not (np.isfinite(mus).all() and np.isfinite(els).all()):
        return DomainError, "block J={J} has a non-finite estimate or element entry"
    if np.abs(els.sum(axis=1) - np.eye(els.shape[-1])).max() > _PSD_TOL:
        return StructureMismatchError, "block J={J} elements do not sum to identity"
    if els.shape[1] > 1:  # a lone element equal to the identity is PSD
        sym = (els + els.swapaxes(2, 3)) / 2.0
        low = _lambda_min(*_sym_entries(sym)) if els.shape[-1] <= 2 else np.linalg.eigvalsh(sym)
        if low.min() < -_PSD_TOL:
            return StructureMismatchError, "element on block J={J} not PSD"
    return None


def _upsilon(stack: np.ndarray, specs: list[BlockPovm]) -> np.ndarray:
    """Symmetrised Upsilon = sum_i A(mu_i) E_i of the blocks of one dimension, one batched matmul.
    A block with fewer outcomes is padded with zero elements (estimate 0), which add exactly 0;
    the outcomes are added in order from 0, as a sum over one block adds them."""
    count = max(len(spec.mus) for spec in specs)
    mus, elements = np.zeros((len(specs), count)), np.zeros((len(specs), count) + stack.shape[2:])
    for p, spec in enumerate(specs):
        mus[p, :len(spec.mus)], elements[p, :len(spec.mus)] = spec.mus, spec.elements
    mus = mus.ravel().tolist()
    sin_mu, cos_mu = np.array([[math.sin(mu) for mu in mus],
                               [math.cos(mu) for mu in mus]]).reshape(2, len(specs), count, 1, 1)
    k0, k1, k2 = stack[:, :, None]
    terms = (k0 + sin_mu * k1 + cos_mu * k2) @ elements
    upsilon = sum(terms[:, i] for i in range(count))
    return (upsilon + upsilon.swapaxes(1, 2)) / 2.0


def fidelity(state: GenericState, j2: HalfInt, povm: PovmSpec) -> float:
    """Average fidelity sum_J tr Upsilon_J, the block traces added in J order."""
    trig = signal_trig_blocks(state, half(j2))
    povm.validate({J: len(basis) for J, basis in trig.bases.items()})
    Js, traces = list(trig.bases), np.zeros(len(trig.bases))
    for places, stack in trig.stacks.values():
        upsilon = _upsilon(stack, [povm.per_block[Js[place]] for place in places])
        traces[list(places)] = upsilon.trace(axis1=1, axis2=2)
    return float(sum(traces.tolist()))


def _outcome_series(state: GenericState, j2: HalfInt, povm: PovmSpec):
    """Each outcome's estimate mu (k,) and Legendre coefficients (k, deg+1) of its p_o(cos beta).

    p_o = sum_K P_K(cos beta) sum_{j1, j1'} a_{j1} a_{j1'} E_o[j1, j1'] c_K[j1, j1'] over the stacks
    of _multipoles, so each row is read straight off the table.
    """
    mus, rows = [], []
    for J, (basis, c) in _multipoles(state.m1, state.j_labels, j2).items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        weight = np.outer(amps, amps) * povm.per_block[J].elements  # (outcomes, d, d)
        mus.extend(povm.per_block[J].mus)
        rows.extend((weight[:, None] * c).sum(axis=(2, 3)))
    return np.array(mus), np.array(rows)


def fidelity_montecarlo(state: GenericState, j2: HalfInt, povm: PovmSpec,
                        samples: int, seed: int) -> tuple[float, float]:
    """Simulate the estimation protocol; unbiased (estimate, stderr) of the fidelity.

    Draws beta from the sin(beta)/2 prior, picks an outcome from the exact
    per-outcome probabilities, and averages the utility of the outcome's
    estimate.  Deterministic for fixed (seed, samples): u = cos(beta) and the
    picks are the draws of default_rng(seed).uniform(-1, 1, samples) and then
    .uniform(0, 1, samples).  Each probability is a Legendre series of degree
    deg = min(2 max j1, 2j2) in cos(beta), so the cost is O(samples * (deg+1) *
    outcomes) plus O(outcomes * (deg+1) * d^2) per call for blocks of dimension
    d, and none in j2 once the multipole table is cached.  Samples go in chunks
    of max(1, _MC_CHUNK_ELEMENTS // (deg+1)); every per-sample array is a
    chunk-sized buffer allocated once per call and filled in place, so memory
    does not grow with the sample count.
    """
    j2 = half(j2)
    check_samples(samples)
    check_seed(seed)
    povm.validate({J: len(basis) for J, basis in coupling_structure(state.j_labels, j2)})
    mus, series = _outcome_series(state, j2, povm)
    cos_mu, sin_mu = np.cos(mus), np.sin(mus)
    outcomes, terms = series.shape

    # u comes from the stream's first `samples` doubles, the picks from the next ones
    u_rng = np.random.Generator(np.random.PCG64(seed))
    pick_rng = np.random.Generator(np.random.PCG64(seed).advance(samples))
    total = total_sq = 0.0  # running sums of the utility and its square
    chunk = min(samples, max(1, _MC_CHUNK_ELEMENTS // terms))
    # P_0..P_deg at the chunk's u (row 1, P_1, is u itself; a row past P_deg is never read),
    # cumulative p_o, and per sample the pick, sin(beta), the utility, a mask and the outcome
    legendre, cum = np.ones((max(terms, 2), chunk)), np.empty((outcomes, chunk))
    pick_buf, sin_buf, util_buf = np.empty((3, chunk))
    hit_buf, idx_buf = np.empty(chunk, dtype=bool), np.empty(chunk, dtype=np.intp)
    for lo in range(0, samples, chunk):
        n = min(chunk, samples - lo)
        pk, cm = legendre[:, :n], cum[:, :n]
        u, pick, sin_b, util, hit, idx = (buf[:n] for buf in (legendre[1], pick_buf, sin_buf,
                                                               util_buf, hit_buf, idx_buf))
        u_rng.random(out=u)  # cos(beta), the prior in disguise
        u *= 2.0
        u -= 1.0
        pick_rng.random(out=pick)
        for k in range(2, terms):  # Bonnet: k P_k = (2k-1) u P_{k-1} - (k-1) P_{k-2}
            np.multiply(u, pk[k - 1], out=pk[k])
            pk[k] *= (2 * k - 1) / k
            np.multiply(pk[k - 2], (k - 1) / k, out=sin_b)  # sin(beta) is not yet needed
            pk[k] -= sin_b
        np.maximum(np.matmul(series, pk[:terms], out=cm), 0.0, out=cm)
        for o in range(1, outcomes):  # row by row: cumsum along a short axis is slow
            cm[o] += cm[o - 1]
        pick *= cm[-1]  # the draw, below the last row's total: the outcome is the rows it passes
        np.greater(pick, cm[0], out=idx)
        for o in range(1, outcomes - 1):
            idx += np.greater(pick, cm[o], out=hit)
        np.multiply(u, u, out=sin_b)  # u lies in [-1, 1), so 1 - u^2 never rounds below 0
        np.subtract(1.0, sin_b, out=sin_b)
        np.sqrt(sin_b, out=sin_b)
        # (1 + cos mu u) + sin mu sin(beta), then halved, in this order: at two samples the
        # variance cancels, so a reordered sum would move the stderr
        np.take(cos_mu, idx, out=util, mode="clip")  # idx is in range; "raise" would buffer out
        util *= u
        util += 1.0
        np.take(sin_mu, idx, out=pick, mode="clip")  # the pick is spent: its buffer is scratch
        pick *= sin_b
        util += pick
        util *= 0.5
        total += float(util.sum())
        total_sq += float(util @ util)
    est = total / samples
    var = max(total_sq - samples * est * est, 0.0) / (samples - 1)
    return est, math.sqrt(var / samples)
