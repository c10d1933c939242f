import math

import numpy as np
import pytest

from relangle.su2 import DomainError, half, m_range, wigner_d
from relangle.states import GenericState
from relangle import limits
from relangle.limits import (
    asymptotic_deviation,
    classical_fidelity,
    classical_sigma,
    classical_trig_blocks,
    default_sweep_grid,
    sweep_optimal_vs_j2,
)
from relangle.optimizer import max_fidelity, optimize_state

BLIND_GUESS = 0.5 + math.pi / 8.0

NAMED = [GenericState.two_term(0.609), GenericState.parallel(),
         GenericState.antiparallel()]


class TestClassicalSigma:
    def test_domain_check(self):
        with pytest.raises(DomainError):
            classical_sigma(GenericState.parallel(), -0.2)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 3.5])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(DomainError):
            classical_sigma(GenericState.parallel(), beta)

    @pytest.mark.parametrize("state", NAMED)
    @pytest.mark.parametrize("beta", [0.0, 0.4, math.pi / 2, 2.7, math.pi])
    def test_trace_symmetry_positivity(self, state, beta):
        sigma = classical_sigma(state, beta)
        assert sigma.trace() == pytest.approx(1.0, abs=1e-12)
        for _, mat in sigma.blocks.values():
            assert np.abs(mat - mat.T).max() < 1e-12
            assert np.linalg.eigvalsh(mat).min() > -1e-12

    def test_zero_rotation_is_pure_projector(self):
        state = GenericState.two_term(0.6)
        sigma = classical_sigma(state, 0.0)
        basis, mat = sigma.blocks[state.m1]
        expect = np.outer(state.amplitude_vector, state.amplitude_vector)
        assert np.abs(mat - expect).max() < 1e-14
        for m, (_, other) in sigma.blocks.items():
            if m != state.m1:
                assert np.abs(other).max() < 1e-14

    def test_coherent_diagonal_is_squared_d_column(self):
        state = GenericState.parallel()
        beta = 1.1
        sigma = classical_sigma(state, beta)
        for m in m_range(half(1)):
            _, mat = sigma.blocks[m]
            assert mat[0, 0] == pytest.approx(wigner_d(half(1), m, half(1), beta) ** 2,
                                              abs=1e-13)


class TestClassicalFidelity:
    def test_blocks_normalise_to_blind_guess(self):
        trig = classical_trig_blocks(GenericState.two_term(0.5))
        floor = sum(float(np.trace(b.k0)) for b in trig.blocks.values()) \
            + sum(float(np.trace(b.k1)) for b in trig.blocks.values())
        assert floor == pytest.approx(BLIND_GUESS, abs=1e-10)

    def test_one_d_matrix_per_label(self, monkeypatch):
        # every quadrature node comes from one call per label, whatever the block count
        calls = []
        real = limits.wigner_d_matrix

        def counting(j, betas):
            calls.append(j)
            return real(j, betas)

        monkeypatch.setattr(limits, "wigner_d_matrix", counting)
        trig = classical_trig_blocks(GenericState.from_dict(0, {1: 0.6, 3: 0.8}))
        assert len(trig.blocks) == 7
        assert sorted(calls) == [half(1), half(3)]

    @pytest.mark.parametrize("state", NAMED)
    def test_bounds(self, state):
        result = classical_fidelity(state)
        assert BLIND_GUESS <= result.fidelity <= 1.0
        assert result.certified

    @pytest.mark.parametrize("state", NAMED)
    def test_matches_large_j2_quantum_task(self, state):
        f_classical = classical_fidelity(state).fidelity
        f_quantum = max_fidelity(state, half(100), certify=False).fidelity
        assert abs(f_classical - f_quantum) <= 1e-3


class TestAsymptoticDeviation:
    def test_finite_at_zero_rotation(self):
        dev = asymptotic_deviation(GenericState.two_term(0.609), half(10), 0.0)
        assert math.isfinite(dev)

    @pytest.mark.parametrize("state", NAMED)
    def test_monotone_in_j2(self, state):
        seq = [asymptotic_deviation(state, half(v), math.pi / 3)
               for v in (2, 5, 10, 25, 50, 100)]
        for lo, hi in zip(seq[1:], seq[:-1]):
            assert lo <= hi + 1e-10


class TestSweep:
    def test_default_grid(self):
        grid = default_sweep_grid()
        assert grid[0] == half("1/2")
        assert grid[:4] == [half("1/2"), half(1), half("3/2"), half(2)]
        assert [g for g in grid if g.twice > 20] == [half(15), half(20), half(30),
                                                     half(50), half(100)]

    def test_first_row_reproduces_spin_half_values(self):
        (row,) = sweep_optimal_vs_j2([half("1/2")])
        assert row.a_star == pytest.approx(0.609, abs=0.005)
        assert row.f_opt == pytest.approx(0.91092, abs=5e-5)
        assert row.f_parallel == pytest.approx(0.90983, abs=5e-5)
        assert row.f_antiparallel == pytest.approx(0.90982, abs=5e-5)

    def test_ordering_on_small_grid(self):
        rows = sweep_optimal_vs_j2([half("1/2"), half(1), half("3/2")])
        for row in rows:
            assert row.f_opt >= row.f_parallel >= row.f_antiparallel
            assert row.f_parallel - row.f_antiparallel <= 1e-4

    def test_rows_are_the_optimizer_floats(self):
        grid = default_sweep_grid()
        for j2, row in zip(grid, sweep_optimal_vs_j2(grid)):
            a_star, _, result = optimize_state(j2)
            assert row.a_star == a_star
            assert row.f_opt == result.fidelity
            assert row.f_parallel == max_fidelity(GenericState.parallel(), j2,
                                                  certify=False).fidelity
            assert row.f_antiparallel == max_fidelity(GenericState.antiparallel(), j2,
                                                      certify=False).fidelity
