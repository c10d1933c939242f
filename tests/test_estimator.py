import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from relangle.su2 import DomainError, half, m_range
from relangle.states import GenericState, averaged_state
from relangle.estimator import (
    PairEstimate,
    PovmSpec,
    SingleEstimate,
    StructureMismatchError,
    a_operator,
    block_dims,
    fidelity,
    fidelity_montecarlo,
    moment_integrals,
    signal_trig_blocks,
    utility,
)
from relangle.optimizer import max_fidelity

BLIND_GUESS = 0.5 + math.pi / 8.0


def quad_nodes(n=200):
    x, w = leggauss(n)
    return (x + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)


class TestUtility:
    def test_perfect_estimate(self):
        assert utility(1.234, 1.234) == 1.0

    def test_antipodal(self):
        assert utility(0.0, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert utility(math.pi / 2, 0.0) == pytest.approx(0.5, abs=1e-15)


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
        from relangle.su2 import HalfInt, wigner_d_highest
        j2 = HalfInt(twice_j2)
        betas, w = quad_nodes()
        for m2 in (m_range(j2)[0], m_range(j2)[len(m_range(j2)) // 2], m_range(j2)[-1]):
            dsq = np.array([wigner_d_highest(j2, m2, b) ** 2 for b in betas])
            sb = np.sin(betas)
            tri = moment_integrals(j2, m2)
            assert tri.P == pytest.approx(float(np.dot(w, dsq * sb / 4.0)), abs=1e-12)
            assert tri.Q == pytest.approx(float(np.dot(w, dsq * sb * sb / 4.0)), abs=1e-12)
            assert tri.R == pytest.approx(
                float(np.dot(w, dsq * np.cos(betas) * sb / 4.0)), abs=1e-12)


class TestAOperator:
    def test_domain_check(self):
        with pytest.raises(DomainError):
            a_operator(GenericState.parallel(), "1/2", -0.5)

    @pytest.mark.parametrize("a", [0.3, 0.609, 0.8])
    @pytest.mark.parametrize("mu", [0.0, 0.7, math.pi / 2, 2.5])
    def test_two_term_spin_half_entries(self, a, mu):
        op = a_operator(GenericState.two_term(a), "1/2", mu)
        blk = op.block("1/2")
        assert blk[0, 0] == pytest.approx(a * a * (4.0 + math.pi * math.sin(mu)) / 8.0,
                                          abs=1e-12)
        b = math.sqrt(1.0 - a * a)
        assert abs(blk[0, 1]) == pytest.approx(
            a * b * abs(math.cos(mu)) / (6.0 * math.sqrt(3.0)), abs=1e-12)
        trace_32 = float(np.trace(op.block("3/2")))
        assert trace_32 == pytest.approx(
            (1.0 - a * a) * (12.0 + 3.0 * math.pi * math.sin(mu)) / 36.0, abs=1e-12)

    def test_blind_guess_trace_identity(self):
        # summing Tr A_mu over blocks gives the no-measurement average utility
        for state in (GenericState.two_term(0.5), GenericState.parallel()):
            for j2 in ("1/2", 3):
                op = a_operator(state, j2, math.pi / 2)
                assert op.trace() == pytest.approx(BLIND_GUESS, abs=1e-12)

    @pytest.mark.parametrize("state", [GenericState.two_term(0.6),
                                       GenericState.parallel(),
                                       GenericState.from_dict("1/2", {"1/2": 0.8, "3/2": 0.6})])
    @pytest.mark.parametrize("j2", ["1/2", 2, "15/2"])
    def test_matches_quadrature_of_averaged_state(self, state, j2):
        betas, w = quad_nodes()
        mu = 1.1
        weights = w * np.array([utility(mu, b) for b in betas]) * np.sin(betas) / 2.0
        acc = {}
        for b, ww in zip(betas, weights):
            rho = averaged_state(state, j2, b)
            for J in rho.blocks:
                acc[J] = acc.get(J, 0.0) + ww * rho.block(J)
        op = a_operator(state, j2, mu)
        for J in op.blocks:
            assert np.abs(op.block(J) - acc[J]).max() < 1e-9

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
        povm = PovmSpec({J: SingleEstimate(math.pi / 2) for J in dims})
        povm.validate(dims)

    def test_structure_mismatch(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        with pytest.raises(StructureMismatchError):
            PovmSpec({half("3/2"): SingleEstimate(0.1)}).validate(dims)

    def test_incomplete_pair_rejected(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        bad = PovmSpec({
            half("1/2"): PairEstimate(0.3, np.diag([1.0, 0.0]), np.diag([0.0, 0.5])),
            half("3/2"): SingleEstimate(0.1),
        })
        with pytest.raises(StructureMismatchError):
            bad.validate(dims)

    def test_non_psd_rejected(self):
        state = GenericState.two_term(0.6)
        dims = block_dims(state, "1/2")
        bad = PovmSpec({
            half("1/2"): PairEstimate(0.3, np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])),
            half("3/2"): SingleEstimate(0.1),
        })
        with pytest.raises(StructureMismatchError):
            bad.validate(dims)


class TestFidelity:
    def test_blind_guess_floor(self):
        for state in (GenericState.parallel(), GenericState.antiparallel(),
                      GenericState.two_term(0.2)):
            for j2 in ("1/2", "5/2"):
                dims = block_dims(state, j2)
                povm = PovmSpec({J: SingleEstimate(math.pi / 2) for J in dims})
                assert fidelity(state, j2, povm) == pytest.approx(BLIND_GUESS, abs=1e-10)

    def test_bounded_by_one(self):
        result = max_fidelity(GenericState.two_term(0.609), "1/2")
        assert BLIND_GUESS <= result.fidelity <= 1.0

    def test_mismatched_povm_rejected(self):
        povm = PovmSpec({half("1/2"): SingleEstimate(0.3)})
        with pytest.raises(StructureMismatchError):
            fidelity(GenericState.parallel(), "1/2", povm)


class TestFidelityMonteCarlo:
    def test_deterministic(self):
        state = GenericState.antiparallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        r1 = fidelity_montecarlo(state, "1/2", povm, samples=5000, seed=42)
        r2 = fidelity_montecarlo(state, "1/2", povm, samples=5000, seed=42)
        assert r1 == r2

    def test_single_outcome_estimates_blind_average(self):
        state = GenericState.parallel()
        dims = block_dims(state, "1/2")
        povm = PovmSpec({J: SingleEstimate(math.pi / 2) for J in dims})
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
        with pytest.raises(DomainError):
            fidelity_montecarlo(state, "1/2", povm, samples=0, seed=0)

    @pytest.mark.parametrize("samples", [2.5, 10.0, "10", None, -1])
    def test_rejects_non_int_samples(self, samples):
        state = GenericState.parallel()
        povm = max_fidelity(state, "1/2", certify=False).povm
        with pytest.raises(DomainError):
            fidelity_montecarlo(state, "1/2", povm, samples=samples, seed=0)

    def test_peak_memory_bounded_at_large_j2(self):
        # one 201 x 60000 float array alone would take about 100 MB
        state = GenericState.two_term(0.609)
        povm = max_fidelity(state, 100, certify=False).povm
        fidelity_montecarlo(state, 100, povm, samples=10, seed=0)  # warm the caches
        tracemalloc.start()
        try:
            fidelity_montecarlo(state, 100, povm, samples=60000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_peak_memory_bounded_in_samples(self):
        # the two per-sample uniforms take 16 MB; ten per-sample arrays would take 80 MB
        state = GenericState.antiparallel()
        povm = max_fidelity(state, 10, certify=False).povm
        fidelity_montecarlo(state, 10, povm, samples=10, seed=0)  # warm the caches
        tracemalloc.start()
        try:
            fidelity_montecarlo(state, 10, povm, samples=10 ** 6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_several_chunks(self):
        # 2**18 // 21 = 12483 samples per chunk at j2 = 10
        state = GenericState.antiparallel()
        result = max_fidelity(state, 10, certify=False)
        samples = 3 * (2 ** 18 // 21) + 1
        r1 = fidelity_montecarlo(state, 10, result.povm, samples=samples, seed=5)
        r2 = fidelity_montecarlo(state, 10, result.povm, samples=samples, seed=5)
        assert r1 == r2
        est, err = r1
        assert abs(est - fidelity(state, 10, result.povm)) < 5.0 * err
