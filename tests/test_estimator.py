import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import legval
from numpy.polynomial.legendre import leggauss

import relangle.estimator as estimator_module
import relangle.optimizer as optimizer_module
import relangle.states as states_module
from relangle.su2 import DomainError, _log_binom, half, m_range
from relangle.states import GenericState, averaged_state
from relangle.estimator import (
    BlockPovm,
    PovmSpec,
    StructureMismatchError,
    fidelity,
    fidelity_montecarlo,
    signal_trig_blocks,
)
from relangle.limits import default_sweep_grid
from relangle.optimizer import helstrom_certificate, max_fidelity
from helpers import block_dims, cg_geometry, cg_table, geometry_blocks, moment_integrals

BLIND_GUESS = 0.5 + math.pi / 8.0


def blind_povm(dims, mu=math.pi / 2):
    """One outcome per block with estimate mu and the block identity as element."""
    return PovmSpec({J: BlockPovm([mu], [np.eye(dim)]) for J, dim in dims.items()})


def quad_nodes(n=200):
    x, w = leggauss(n)
    return (x + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)


class TestMomentIntegrals:
    def test_spin_half_values(self):
        tri = moment_integrals(half("1/2"), half("1/2"))
        assert tri.P == pytest.approx(0.25, abs=1e-15)
        assert tri.R == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert tri.value(math.pi / 2) == pytest.approx(0.25 + math.pi / 16.0, abs=1e-12)

    def test_p_sums_to_half(self):
        for j2 in (half("1/2"), half(3), half("15/2")):
            total = sum(moment_integrals(j2, m2).P for m2 in m_range(j2))
            assert total == pytest.approx(0.5, abs=1e-12)

    def test_bounds(self):
        mus = np.linspace(0.0, math.pi, 1000)
        for j2 in (half("1/2"), half(2), half(10)):
            for m2 in m_range(j2):
                tri = moment_integrals(j2, m2)
                assert tri.P > 0.0
                assert abs(tri.Q) <= tri.P + 1e-15
                assert abs(tri.R) <= tri.P + 1e-15
                assert min(tri.value(mu) for mu in mus) >= -1e-15

    def test_invalid_labels(self):
        with pytest.raises(DomainError):
            moment_integrals(half("1/2"), half("3/2"))

    @pytest.mark.parametrize("twice_j2", [1, 4, 11, 60, 200])
    def test_matches_quadrature(self, twice_j2):
        # weight sin(beta)/2; the squared amplitude is polynomial in cos(beta)
        from relangle.su2 import HalfInt, _highest_weight_vector
        j2 = HalfInt(twice_j2)
        betas, w = quad_nodes()
        for k in (0, (twice_j2 + 1) // 2, twice_j2):
            m2 = m_range(j2)[k]
            dsq = np.array([_highest_weight_vector(j2, b)[k] ** 2 for b in betas])
            sb = np.sin(betas)
            tri = moment_integrals(j2, m2)
            assert tri.P == pytest.approx(float(np.dot(w, dsq * sb / 4.0)), abs=1e-12)
            assert tri.Q == pytest.approx(float(np.dot(w, dsq * sb * sb / 4.0)), abs=1e-12)
            assert tri.R == pytest.approx(
                float(np.dot(w, dsq * np.cos(betas) * sb / 4.0)), abs=1e-12)


CERTIFY_LABELS = [("0", labels) for labels in (("0", "1"), ("0", "2"), ("0", "3"), ("1", "2"),
                                                ("1", "3"), ("2", "3"))]
CERTIFY_LABELS += [(j1, (j1,)) for j1 in ("1/2", "1", "3/2", "2", "5/2", "3")]
CERTIFY_LABELS += [("1/2", ("1/2", "3/2")), ("1", ("1", "2", "3"))]


class TestGeometry:
    def test_k0_is_diagonal_in_closed_form(self):
        for m1, labels in CERTIFY_LABELS:
            for j2 in (half("1/2"), half(7), half(100)):
                for J, (basis, (k0, _, _)) in geometry_blocks(half(m1), tuple(map(half, labels)),
                                                              j2).items():
                    assert np.all(k0[~np.eye(len(basis), dtype=bool)] == 0.0)
                    want = [(J.twice + 1) / (2 * (j2.twice + 1) * (j1.twice + 1)) for j1 in basis]
                    assert k0.diagonal() == pytest.approx(want, rel=1e-15)

    def test_cold_geometry_at_large_j2_is_fast(self):
        # the table's kernel calls do not grow with j2; the CG route took 0.24 s at j2 = 400
        best = math.inf
        for _ in range(3):
            estimator_module._geometry.cache_clear()
            states_module._multipoles.cache_clear()
            start = time.perf_counter()
            estimator_module._geometry(half(0), (half(0), half(1)), half(10 ** 4))
            best = min(best, time.perf_counter() - start)
        assert best < 0.01

    @pytest.mark.parametrize("m1, labels", CERTIFY_LABELS)
    def test_matches_clebsch_gordan_route(self, m1, labels):
        m1, labels = half(m1), tuple(map(half, labels))
        j2s = default_sweep_grid() if labels == (half(0), half(1)) else map(half, (1, "7/2", 25, 100))
        for j2 in j2s:
            got, want = geometry_blocks(m1, labels, j2), cg_geometry(m1, labels, j2)
            assert list(got) == list(want)
            for J, (basis, coeffs) in got.items():
                assert basis == want[J][0]
                assert np.abs(coeffs - want[J][1]).max() <= 1e-13


def a_blocks(state, j2, mu):
    """A(mu) of each block J of the signal, from its family's blocks."""
    return {J: blk.at(mu) for J, blk in signal_trig_blocks(state, half(j2)).blocks.items()}


class TestAOperator:
    @pytest.mark.parametrize("a", [0.3, 0.609, 0.8])
    @pytest.mark.parametrize("mu", [0.0, 0.7, math.pi / 2, 2.5])
    def test_two_term_spin_half_entries(self, a, mu):
        op = a_blocks(GenericState.two_term(a), "1/2", mu)
        blk = op[half("1/2")]
        assert blk[0, 0] == pytest.approx(a * a * (4.0 + math.pi * math.sin(mu)) / 8.0,
                                          abs=1e-12)
        b = math.sqrt(1.0 - a * a)
        assert abs(blk[0, 1]) == pytest.approx(
            a * b * abs(math.cos(mu)) / (6.0 * math.sqrt(3.0)), abs=1e-12)
        trace_32 = float(np.trace(op[half("3/2")]))
        assert trace_32 == pytest.approx(
            (1.0 - a * a) * (12.0 + 3.0 * math.pi * math.sin(mu)) / 36.0, abs=1e-12)

    def test_blind_guess_trace_identity(self):
        # summing Tr A_mu over blocks gives the no-measurement average utility
        for state in (GenericState.two_term(0.5), GenericState.parallel()):
            for j2 in ("1/2", 3):
                op = a_blocks(state, j2, math.pi / 2)
                assert sum(np.trace(m) for m in op.values()) == pytest.approx(BLIND_GUESS, abs=1e-12)

    @pytest.mark.parametrize("state", [GenericState.two_term(0.6),
                                       GenericState.parallel(),
                                       GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6})])
    @pytest.mark.parametrize("j2", ["1/2", 2, "15/2"])
    def test_matches_quadrature_of_averaged_state(self, state, j2):
        betas, w = quad_nodes()
        mu = 1.1
        weights = w * np.cos((mu - betas) / 2.0) ** 2 * np.sin(betas) / 2.0
        acc = {}
        for b, ww in zip(betas, weights):
            rho = averaged_state(state, j2, b)
            for J in rho.blocks:
                acc[J] = acc.get(J, 0.0) + ww * rho.block(J)
        op = a_blocks(state, j2, mu)
        assert op.keys() == acc.keys()
        for J, m in op.items():
            assert np.abs(m - acc[J]).max() < 1e-9

    def test_sinusoidal_structure(self):
        state = GenericState.two_term(0.4)
        trig = signal_trig_blocks(state, half(2))
        mus = np.array([0.1, 0.9, 1.7, 2.3, 3.0])
        design = np.column_stack([np.ones(5), np.sin(mus), np.cos(mus)])
        for J, blk in trig.blocks.items():
            for i in range(blk.dim):
                for k in range(blk.dim):
                    y = np.array([blk.at(mu)[i, k] for mu in mus])
                    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
                    assert np.abs(design @ coef - y).max() < 1e-10


class TestPovmSpec:
    def test_single_estimate_completeness(self):
        state = GenericState.parallel()
        dims = block_dims(state, "1/2")
        blind_povm(dims).validate(dims)

    def test_structure_mismatch(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        with pytest.raises(StructureMismatchError):
            PovmSpec({half("3/2"): BlockPovm([0.1], [[[1.0]]])}).validate(dims)

    def test_incomplete_pair_rejected(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        bad = PovmSpec({
            half("1/2"): BlockPovm([0.3, math.pi - 0.3],
                                   [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]),
            half("3/2"): BlockPovm([0.1], [[[1.0]]]),
        })
        with pytest.raises(StructureMismatchError, match="sum to identity"):
            bad.validate(dims)

    def test_non_psd_rejected(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        bad = PovmSpec({
            half("1/2"): BlockPovm([0.3, math.pi - 0.3],
                                   [np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]),
            half("3/2"): BlockPovm([0.1], [[[1.0]]]),
        })
        with pytest.raises(StructureMismatchError, match="not PSD"):
            bad.validate(dims)


    def test_first_failing_block_in_j_order_is_named(self):
        # J = 1/2 (2-dim) comes before J = 3/2 (1-dim); each check is made on both shapes
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        incomplete = BlockPovm([0.3, 2.8], [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])
        nan_single = BlockPovm([math.nan], [[[1.0]]])
        nan_pair = BlockPovm([0.3, math.nan], incomplete.elements)
        bad_shape = BlockPovm([0.1], [np.eye(2)])
        for first, second, error, match in [
            (incomplete, nan_single, StructureMismatchError, "J=1/2 elements do not sum"),
            (nan_pair, bad_shape, DomainError, "J=1/2 has a non-finite"),
            (blind_povm(dims).per_block[half("1/2")], bad_shape,
             StructureMismatchError, "J=3/2 of dimension 1"),
        ]:
            povm = PovmSpec({half("1/2"): first, half("3/2"): second})
            with pytest.raises(error, match=match):
                povm.validate(dims)

    def test_infinite_entries_of_both_signs(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        inf = BlockPovm([0.3, 2.8], [np.diag([math.inf, 0.0]), np.diag([-math.inf, 1.0])])
        with pytest.raises(DomainError, match="J=1/2 has a non-finite"):
            with_block(blind_povm(dims), "1/2", inf).validate(dims)


class TestBlockPovm:
    def test_lists_become_float_arrays(self):
        block = BlockPovm([1], [[[1]]])
        assert block.mus.dtype == block.elements.dtype == np.float64
        assert block.mus.shape == (1,) and block.elements.shape == (1, 1, 1)

    def test_complex_input_fails(self):
        with pytest.raises(TypeError):
            BlockPovm([0.3], np.eye(2, dtype=complex)[None])
        with pytest.raises(TypeError):
            BlockPovm([0.3 + 0.1j], [np.eye(2)])


def with_block(povm, J, block):
    """The optimal POVM of the caller with block J replaced."""
    return PovmSpec({**povm.per_block, half(J): block})


PROJ_3 = np.diag([1.0, 0.0, 0.0])
MALFORMED = {
    # a 3x3 projector pair on the 2-dim J = 1/2 block of two_term(0.6) at j2 = 1/2
    "three_by_three": BlockPovm([0.3, math.pi - 0.3], [PROJ_3, np.eye(3) - PROJ_3]),
    "mus_not_1d": BlockPovm([[0.3, math.pi - 0.3]], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
    "count_mismatch": BlockPovm([0.3, math.pi - 0.3], [np.eye(2)]),
}


class TestMalformedBlock:
    """Every entry point names the block instead of failing inside numpy."""

    @pytest.fixture(params=sorted(MALFORMED))
    def povm(self, request):
        state = GenericState.two_term(0.6)
        povm = max_fidelity(state, "1/2", certify=False).povm
        return state, with_block(povm, "1/2", MALFORMED[request.param])

    def test_validate(self, povm):
        state, povm = povm
        with pytest.raises(StructureMismatchError, match="J=1/2 "):
            povm.validate(block_dims(state, "1/2"))

    def test_fidelity(self, povm):
        with pytest.raises(StructureMismatchError, match="J=1/2 "):
            fidelity(povm[0], "1/2", povm[1])

    def test_fidelity_montecarlo(self, povm):
        with pytest.raises(StructureMismatchError, match="J=1/2 "):
            fidelity_montecarlo(povm[0], "1/2", povm[1], samples=10, seed=0)

    def test_helstrom_certificate(self, povm):
        with pytest.raises(StructureMismatchError, match="J=1/2 "):
            helstrom_certificate(povm[0], "1/2", povm[1])


# j2 = 1 couples all three labels into the 3-dim J = 1 block
THREE_TERM = GenericState.from_dict(0, {0: 0.5, 1: 0.5, 2: math.sqrt(0.5)})


def three_term_povm(block):
    """THREE_TERM's blind POVM at j2 = 1 with the J = 1 block replaced."""
    return with_block(blind_povm(block_dims(THREE_TERM, 1)), 1, block)


def three_outcome_block():
    """Three rank-one projectors on the 3-dim J = 1 block, estimates 0.2, 1.5, 2.9."""
    q, _ = np.linalg.qr(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]))
    return BlockPovm([0.2, 1.5, 2.9], [np.outer(v, v) for v in q.T])


class TestThreeDimBlock:
    povm = staticmethod(three_term_povm)

    def test_non_psd_element_rejected(self):
        # the corners of diag(0.5, -0.5, 0.5) form a PSD 2x2 matrix
        bad = np.diag([0.5, -0.5, 0.5])
        povm = self.povm(BlockPovm([0.3, 2.8], [bad, np.eye(3) - bad]))
        with pytest.raises(StructureMismatchError, match="J=1 .*not PSD"):
            fidelity(THREE_TERM, 1, povm)

    def test_three_outcome_povm_accepted(self):
        povm = self.povm(three_outcome_block())
        f = fidelity(THREE_TERM, 1, povm)
        expected = sum(float(np.trace(a_blocks(THREE_TERM, 1, mu)[J] @ e))
                       for J, block in povm.per_block.items()
                       for mu, e in zip(block.mus, block.elements))
        assert f == pytest.approx(expected, abs=1e-14)
        est, err = fidelity_montecarlo(THREE_TERM, 1, povm, samples=100000, seed=3)
        assert abs(est - f) < 4.0 * err


def mixed_block(dim, count, mu0):
    """A POVM on one block of this dimension with count outcomes, estimates from mu0 on.

    Two outcomes split the block by a rotated projector; three take the trine
    (2/3) v_k v_k^T on a 2-dim block and three rank-one projectors on a 3-dim one.
    """
    mus = [mu0 + 0.9 * i for i in range(count)]
    if count == 1:
        return BlockPovm(mus, [np.eye(dim)])
    if dim == 1:
        weights = [0.3, 0.7] if count == 2 else [0.2, 0.5, 0.3]
        return BlockPovm(mus, [[[w]] for w in weights])
    if dim == 3:
        return BlockPovm(mus, three_outcome_block().elements)
    if count == 2:
        v = np.array([math.cos(mu0), math.sin(mu0)])
        return BlockPovm(mus, [np.outer(v, v), np.eye(2) - np.outer(v, v)])
    trine = [np.array([math.cos(t), math.sin(t)]) for t in mu0 + np.arange(3) * math.pi / 3]
    return BlockPovm(mus, [2.0 / 3.0 * np.outer(v, v) for v in trine])


# (state, j2, outcome counts in J order): 1, 2 and 3 outcomes mixed within one block dimension;
# m1 = 0, labels {1, 2} at j2 = 2 have three 2-dim blocks J = 1, 2, 3 and 1-dim J = 0, 4
MIXED_CASES = [
    (GenericState.from_dict(0, {1: 0.6, 2: 0.8}), 2, (2, 1, 2, 3, 3)),
    (GenericState.from_dict(0, {1: 0.6, 2: 0.8}), 2, (1, 3, 1, 2, 2)),
    (GenericState.from_dict("1/2", {"1/2": 0.6, "3/2": 0.8}), "3/2", (3, 2, 1, 1)),
    (THREE_TERM, 1, (2, 3, 1, 3)),
]


def mixed_povm(state, j2, counts):
    dims = block_dims(state, j2)
    return PovmSpec({J: mixed_block(dim, count, 0.2 + 0.3 * i)
                     for i, ((J, dim), count) in enumerate(zip(dims.items(), counts))})


def reference_upsilon(state, j2, povm, J):
    """Upsilon_J = sum_i A_J(mu_i) E_i of one block, one outcome at a time, symmetrised."""
    block = povm.per_block[J]
    total = sum(a_blocks(state, j2, mu)[J] @ e for mu, e in zip(block.mus, block.elements))
    return (total + total.T) / 2.0


class TestFidelity:
    @pytest.mark.parametrize("state, j2, counts", MIXED_CASES)
    def test_matches_per_block_outcome_sum(self, state, j2, counts):
        povm = mixed_povm(state, j2, counts)
        assert [len(b.mus) for b in povm.per_block.values()] == list(counts)
        expected = sum(float(np.trace(a_blocks(state, j2, mu)[J] @ e))
                       for J, block in povm.per_block.items()
                       for mu, e in zip(block.mus, block.elements))
        assert abs(fidelity(state, j2, povm) - expected) <= 1e-15

    @pytest.mark.parametrize("state, j2, counts", MIXED_CASES[:3])
    def test_certificate_matches_per_block_scan(self, state, j2, counts):
        povm = mixed_povm(state, j2, counts)
        grid = np.linspace(0.0, math.pi, optimizer_module.CERTIFICATE_GRID)
        lows = [np.linalg.eigvalsh(reference_upsilon(state, j2, povm, J)
                                   - a_blocks(state, j2, mu)[J]).min()
                for J in povm.per_block for mu in grid]
        assert abs(helstrom_certificate(state, j2, povm) - min(lows)) <= 1e-14

    def test_one_upsilon_for_fidelity_and_certificate(self, monkeypatch):
        state, j2, counts = MIXED_CASES[0]
        povm, calls = mixed_povm(state, j2, counts), []
        upsilon = estimator_module._upsilon

        def counting(stack, specs):
            calls.append(len(specs))
            return upsilon(stack, specs)

        for module in (estimator_module, optimizer_module):
            monkeypatch.setattr(module, "_upsilon", counting)
        fidelity(state, j2, povm)
        helstrom_certificate(state, j2, povm)
        assert calls == [2, 3] * 2  # one call per block dimension, for each

    def test_blind_guess_floor(self):
        for state in (GenericState.parallel(), GenericState.antiparallel(),
                      GenericState.two_term(0.2)):
            for j2 in ("1/2", "5/2"):
                povm = blind_povm(block_dims(state, j2))
                assert fidelity(state, j2, povm) == pytest.approx(BLIND_GUESS, abs=1e-10)

    def test_bounded_by_one(self):
        result = max_fidelity(GenericState.two_term(0.609), "1/2")
        assert BLIND_GUESS <= result.fidelity <= 1.0

    def test_mismatched_povm_rejected(self):
        povm = PovmSpec({half("1/2"): BlockPovm([0.3], [np.eye(2)])})
        with pytest.raises(StructureMismatchError):
            fidelity(GenericState.parallel(), "1/2", povm)


def montecarlo_reference(state, j2, povm, samples, seed, skew=0):
    """fidelity_montecarlo as it was before its chunks became two matrix products.

    The reference the GEMM form must match to rounding: the same draws in the
    same order, chunks of 2**18 // (2j2+1) samples, log d^2 as one broadcast
    sum, and a cumsum over the outcome axis.  A nonzero skew takes the picks
    that many draws further along the stream, out of step with the u's.
    """
    j2 = half(j2)
    table = cg_table(state.m1, state.j_labels, j2)
    mus, coef_rows = [], []
    for J, (basis, cols) in table.items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        for mu, element in zip(povm.per_block[J].mus, povm.per_block[J].elements):
            weight = (np.outer(amps, amps) * element.T)[:, :, None]
            mus.append(mu)
            coef_rows.append((weight * cols[:, None, :] * cols[None, :, :]).sum(axis=(0, 1)))
    mus, coef = np.array(mus), np.array(coef_rows)
    log_binom = _log_binom(j2.twice)[:, None]
    a_pow = np.arange(j2.twice + 1, dtype=float)[:, None]
    b_pow = a_pow[::-1]
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, samples)
    rng.random(skew)
    pick = rng.uniform(0.0, 1.0, samples)
    total = total_sq = 0.0
    chunk = max(1, 2 ** 18 // (j2.twice + 1))
    for lo in range(0, samples, chunk):
        uc = u[lo:lo + chunk]
        with np.errstate(divide="ignore"):
            log_c2 = np.log(np.maximum((1.0 + uc) / 2.0, 1e-300))
            log_s2 = np.log(np.maximum((1.0 - uc) / 2.0, 1e-300))
        dsq = np.exp(log_binom + a_pow * log_c2[None, :] + b_pow * log_s2[None, :])
        cum = np.cumsum(np.clip(coef @ dsq, 0.0, None), axis=0)
        draw = pick[lo:lo + chunk] * cum[-1]
        mu_sel = mus[(draw[None, :] > cum).sum(axis=0).clip(max=len(mus) - 1)]
        sin_b = np.sqrt(np.maximum(1.0 - uc * uc, 0.0))
        utils = 0.5 * (1.0 + np.cos(mu_sel) * uc + np.sin(mu_sel) * sin_b)
        total += float(utils.sum())
        total_sq += float(utils @ utils)
    est = total / samples
    var = max(total_sq - samples * est * est, 0.0) / (samples - 1)
    return est, math.sqrt(var / samples)


def series_degree(state, j2):
    """Degree in cos(beta) of every outcome probability of state at j2."""
    return min(max(j1.twice for j1 in state.j_labels), half(j2).twice)


def chunk_samples(state, j2):
    """Samples per fidelity_montecarlo chunk for state at j2."""
    return max(1, estimator_module._MC_CHUNK_ELEMENTS // (series_degree(state, j2) + 1))


REFERENCE_STATES = {
    "two_term": GenericState.two_term(0.609),
    "parallel": GenericState.parallel(),
    "m1_half": GenericState.from_dict("1/2", {"1/2": 0.6, "3/2": 0.8}),
    "m1_one": GenericState.from_dict(1, {1: math.cos(0.4), 2: math.sin(0.4)}),
}

# (state, j2) whose outcome probabilities are series of degree 0, 1 and 2 in cos(beta)
CHUNK_CASES = {
    "0": (GenericState.from_dict(0, {0: 1.0}), "10"),
    "1": (REFERENCE_STATES["two_term"], "1/2"),
    "2": (REFERENCE_STATES["two_term"], "10"),
}


class TestFidelityMonteCarlo:
    @pytest.mark.parametrize("name", sorted(REFERENCE_STATES))
    @pytest.mark.parametrize("j2", ["1/2", "10", "100"])
    def test_matches_reference(self, name, j2):
        state = REFERENCE_STATES[name]
        povm = max_fidelity(state, j2, certify=False).povm
        for samples in (2, 3 * chunk_samples(state, j2) + 1):
            est, err = fidelity_montecarlo(state, j2, povm, samples, seed=7)
            want_est, want_err = montecarlo_reference(state, j2, povm, samples, seed=7)
            assert abs(est - want_est) <= 1e-14 and abs(err - want_err) <= 1e-15

    def test_matches_reference_three_outcomes(self):
        povm = three_term_povm(three_outcome_block())
        for samples in (2, 3 * chunk_samples(THREE_TERM, 1) + 1):
            est, err = fidelity_montecarlo(THREE_TERM, 1, povm, samples, seed=4)
            want_est, want_err = montecarlo_reference(THREE_TERM, 1, povm, samples, seed=4)
            assert abs(est - want_est) <= 1e-14 and abs(err - want_err) <= 1e-15

    @pytest.mark.parametrize("degree", sorted(CHUNK_CASES))
    def test_matches_reference_at_chunk_boundaries(self, degree):
        state, j2 = CHUNK_CASES[degree]
        povm = max_fidelity(state, j2, certify=False).povm
        chunk = chunk_samples(state, j2)
        for samples in (chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
            est, err = fidelity_montecarlo(state, j2, povm, samples, seed=3)
            want_est, want_err = montecarlo_reference(state, j2, povm, samples, seed=3)
            assert abs(est - want_est) <= 1e-14 and abs(err - want_err) <= 1e-15

    def test_matches_reference_at_chunk_boundaries_three_outcomes(self):
        povm = three_term_povm(three_outcome_block())
        chunk = chunk_samples(THREE_TERM, 1)
        for samples in (chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
            est, err = fidelity_montecarlo(THREE_TERM, 1, povm, samples, seed=8)
            want_est, want_err = montecarlo_reference(THREE_TERM, 1, povm, samples, seed=8)
            assert abs(est - want_est) <= 1e-14 and abs(err - want_err) <= 1e-15

    def test_picks_aligned_with_a_ragged_last_chunk(self):
        # the picks follow all the u's in one stream, whatever the chunks; a pick stream
        # one draw out of step would pair each u with its neighbour's pick
        povm = three_term_povm(three_outcome_block())
        samples = 2 * chunk_samples(THREE_TERM, 1) + 17
        est, _ = fidelity_montecarlo(THREE_TERM, 1, povm, samples, seed=12)
        assert abs(est - montecarlo_reference(THREE_TERM, 1, povm, samples, seed=12)[0]) <= 1e-14
        for skew in (1, 17):
            off, _ = montecarlo_reference(THREE_TERM, 1, povm, samples, seed=12, skew=skew)
            assert abs(est - off) > 1e-9

    def test_deterministic(self):
        state = GenericState.antiparallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        r1 = fidelity_montecarlo(state, "1/2", povm, samples=5000, seed=42)
        r2 = fidelity_montecarlo(state, "1/2", povm, samples=5000, seed=42)
        assert r1 == r2

    def test_single_outcome_estimates_blind_average(self):
        state = GenericState.parallel()
        povm = blind_povm(block_dims(state, "1/2"))
        est, err = fidelity_montecarlo(state, "1/2", povm, samples=100000, seed=1)
        assert abs(est - BLIND_GUESS) < 4.0 * err
        # utility (1 + sin beta) / 2 has variance (2/3 - pi^2/16) / 4 under the prior
        assert err == pytest.approx(math.sqrt((2 / 3 - math.pi ** 2 / 16) / 4 / 100000), rel=0.02)

    @pytest.mark.parametrize("state", [GenericState.parallel(),
                                       GenericState.antiparallel(),
                                       GenericState.two_term(0.609)])
    def test_matches_analytic_fidelity(self, state):
        for j2 in ("1/2", 2):
            result = max_fidelity(state, j2, certify=False)
            est, err = fidelity_montecarlo(state, j2, result.povm,
                                           samples=200000, seed=9)
            assert abs(est - result.fidelity) < 4.0 * err

    def test_rejects_zero_samples(self):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        for samples in (0, 1):  # one sample has no standard error
            with pytest.raises(DomainError, match="samples"):
                fidelity_montecarlo(state, "1/2", povm, samples=samples, seed=0)

    @pytest.mark.parametrize("samples", [2.5, 10.0, "10", None, -1])
    def test_rejects_non_int_samples(self, samples):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        with pytest.raises(DomainError):
            fidelity_montecarlo(state, "1/2", povm, samples=samples, seed=0)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True, False])
    def test_rejects_bad_seed(self, seed):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        with pytest.raises(DomainError, match="seed"):
            fidelity_montecarlo(state, "1/2", povm, samples=10, seed=seed)

    def test_numpy_int_seed_accepted(self):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        assert (fidelity_montecarlo(state, "1/2", povm, samples=10, seed=np.int64(3))
                == fidelity_montecarlo(state, "1/2", povm, samples=10, seed=3))

    def test_peak_memory_bounded_at_large_j2(self):
        # one 201 x 60000 float array alone would take about 100 MB; the chunk buffers
        # take about 1 MB
        state = GenericState.two_term(0.609)
        povm = max_fidelity(state, 100, certify=False).povm
        fidelity_montecarlo(state, 100, povm, samples=10, seed=0)  # warm the caches
        tracemalloc.start()
        try:
            fidelity_montecarlo(state, 100, povm, samples=60000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_peak_memory_bounded_at_small_j2(self):
        # every per-sample array is a chunk buffer, about 1.3 MB in all; the two uniforms
        # drawn whole would take 3.2 MB on their own
        state = GenericState.two_term(0.609)
        povm = max_fidelity(state, "1/2", certify=False).povm
        fidelity_montecarlo(state, "1/2", povm, samples=10, seed=0)  # warm the caches
        tracemalloc.start()
        try:
            fidelity_montecarlo(state, "1/2", povm, samples=200000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_peak_memory_bounded_in_samples(self):
        # the chunk buffers take about 1 MB; one per-sample array would take 8 MB
        state = GenericState.antiparallel()
        povm = max_fidelity(state, 10, certify=False).povm
        fidelity_montecarlo(state, 10, povm, samples=10, seed=0)  # warm the caches
        tracemalloc.start()
        try:
            fidelity_montecarlo(state, 10, povm, samples=10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_peak_memory_flat_in_samples(self):
        # at j2 = 10 a chunk holds about 10**4 samples, so 10**6 samples add nothing to the buffers
        state = GenericState.antiparallel()
        povm = max_fidelity(state, 10, certify=False).povm
        fidelity_montecarlo(state, 10, povm, samples=10, seed=0)  # warm the caches
        peaks = []
        for samples in (10 ** 4, 10 ** 6):
            tracemalloc.start()
            try:
                fidelity_montecarlo(state, 10, povm, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_several_chunks(self):
        # three whole chunks of samples at j2 = 10 and one more
        state = GenericState.antiparallel()
        result = max_fidelity(state, 10, certify=False)
        samples = 3 * chunk_samples(state, 10) + 1
        r1 = fidelity_montecarlo(state, 10, result.povm, samples=samples, seed=5)
        r2 = fidelity_montecarlo(state, 10, result.povm, samples=samples, seed=5)
        assert r1 == r2
        est, err = r1
        assert abs(est - fidelity(state, 10, result.povm)) < 5.0 * err

    def test_large_j2(self):
        # at 2j2 = 1040 the integer Racah sums of the CG table no longer fit in a float
        state = GenericState.two_term(0.6)
        povm = max_fidelity(state, 520, certify=False).povm
        est, err = fidelity_montecarlo(state, 520, povm, samples=20000, seed=11)
        assert abs(est - fidelity(state, 520, povm)) < 5.0 * err


def direct_probabilities(state, j2, povm, u):
    """Each outcome's p_o(u) as coef @ d^2 with d^2 in log form, and each row's sum of |coef|."""
    j2 = half(j2)
    coef = []
    for J, (basis, cols) in cg_table(state.m1, state.j_labels, j2).items():
        amps = np.array([state.amplitude(j1) for j1 in basis])
        for element in povm.per_block[J].elements:
            coef.append(np.einsum("i,k,ik,in,kn->n", amps, amps, element, cols, cols))
    coef = np.array(coef)
    a_pow = np.arange(j2.twice + 1)[:, None]  # j2 + m2
    log_c2 = np.log(np.maximum((1.0 + u) / 2.0, 1e-300))
    log_s2 = np.log(np.maximum((1.0 - u) / 2.0, 1e-300))
    dsq = np.exp(_log_binom(j2.twice)[:, None] + a_pow * log_c2 + a_pow[::-1] * log_s2)
    return coef @ dsq, np.abs(coef).sum(axis=1)


def random_symmetric_povm(state, j2, rng):
    """Three random estimates and symmetric elements on every block; not a POVM."""
    per_block = {}
    for J, dim in block_dims(state, j2).items():
        x = rng.normal(size=(3, dim, dim))
        per_block[J] = BlockPovm(rng.uniform(0.0, math.pi, 3), x + x.swapaxes(1, 2))
    return PovmSpec(per_block)


SERIES_STATES = {
    "j1_zero": GenericState.from_dict(0, {0: 1.0}),
    "m1_zero": GenericState.two_term(0.609),
    "m1_zero_three": GenericState.from_dict(0, {0: 0.5, 2: 0.5, 3: math.sqrt(0.5)}),
    "m1_half": GenericState.from_dict("1/2", {"1/2": 0.6, "3/2": 0.8}),
    "m1_half_three": GenericState.from_dict("1/2", {"1/2": 0.6, "3/2": 0.64, "5/2": 0.48}),
    "m1_one": GenericState.from_dict(1, {1: math.cos(0.4), 3: math.sin(0.4)}),
    "m1_one_three": GenericState.from_dict(1, {1: 0.6, 2: 0.64, 3: 0.48}),
}


class TestOutcomeSeries:
    @pytest.mark.parametrize("name", sorted(SERIES_STATES))
    @pytest.mark.parametrize("j2", ["1/2", "1", "7/2", "10", "50", "100"])
    def test_matches_direct_probabilities(self, name, j2):
        state = SERIES_STATES[name]
        rng = np.random.default_rng(17)
        u = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 2000)])
        povms = [random_symmetric_povm(state, j2, rng)]
        if max(block_dims(state, j2).values()) <= 2:  # the optimizer solves blocks up to 2x2
            povms.append(max_fidelity(state, j2, certify=False).povm)
        for povm in povms:
            mus, series = estimator_module._outcome_series(state, half(j2), povm)
            want, scale = direct_probabilities(state, j2, povm, u)
            assert mus.tolist() == [mu for block in povm.per_block.values() for mu in block.mus]
            assert series.shape == (len(want), series_degree(state, j2) + 1)
            got = legval(u, series.T)
            assert np.all(np.abs(got - want) <= 1e-14 * scale[:, None])
            if povm is povms[0]:  # random elements reach the degree: the top term counts
                assert np.abs(series[:, -1]).max() > 1e-6 * scale.max()
