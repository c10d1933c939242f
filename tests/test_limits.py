import math

import numpy as np
import pytest

from relangle.su2 import DomainError, HalfInt, half, m_range, wigner_d_matrix
from relangle.states import GenericState, _classical_multipoles, _multipoles, averaged_state
from relangle.limits import (
    asymptotic_deviation,
    classical_fidelity,
    classical_sigma,
    classical_trig_blocks,
    default_sweep_grid,
    sweep_optimal_vs_j2,
)
from relangle.optimizer import max_fidelity, optimize_state

from helpers import (cg_averaged_state, quadrature_sigma, quadrature_trig_blocks,
                     reference_fidelities)

BLIND_GUESS = 0.5 + math.pi / 8.0

NAMED = [GenericState.two_term(0.609), GenericState.parallel(),
         GenericState.antiparallel()]

# m1 = 0, 1/2, 1 and 5, up to four labels, blocks up to dimension 4
TABLE_STATES = NAMED + [
    GenericState.from_dict("1/2", {"1/2": 0.6, "5/2": 0.8}),
    GenericState.from_dict(1, {1: 0.6, 2: 0.8}),
    GenericState.from_dict(0, {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5}),
    GenericState.coherent(5),
    GenericState.from_dict(5, {5: 0.6, 6: 0.8}),
]


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

    @pytest.mark.parametrize("state", TABLE_STATES)
    @pytest.mark.parametrize("beta", [0.3, 1.7, 2.9])
    def test_matches_d_columns(self, state, beta):
        got, want = classical_sigma(state, beta).blocks, quadrature_sigma(state, beta).blocks
        assert list(got) == list(want)
        for m, (basis, mat) in got.items():
            assert basis == want[m][0]
            assert np.abs(mat - want[m][1]).max() < 1e-14

    def test_coherent_diagonal_is_squared_d_column(self):
        state = GenericState.parallel()
        beta = 1.1
        sigma = classical_sigma(state, beta)
        column = wigner_d_matrix(half(1), beta)[0, :, -1]  # d^1_{m 1} over m = -1..1
        for m, d in zip(m_range(half(1)), column):
            _, mat = sigma.blocks[m]
            assert mat[0, 0] == pytest.approx(d ** 2, abs=1e-13)


class TestClassicalFidelity:
    def test_blocks_normalise_to_blind_guess(self):
        trig = classical_trig_blocks(GenericState.two_term(0.5))
        floor = sum(float(np.trace(b.k0)) for b in trig.blocks.values()) \
            + sum(float(np.trace(b.k1)) for b in trig.blocks.values())
        assert floor == pytest.approx(BLIND_GUESS, abs=1e-10)

    @pytest.mark.parametrize("state", TABLE_STATES)
    def test_matches_quadrature_route(self, state):
        got, want = classical_trig_blocks(state), quadrature_trig_blocks(state)
        assert dict(got.bases) == dict(want.bases)
        for m, blk in got.blocks.items():
            ref = want.blocks[m]
            for k, k_ref in ((blk.k0, ref.k0), (blk.k1, ref.k1), (blk.k2, ref.k2)):
                assert np.abs(k - k_ref).max() <= 1e-14

    def test_parallel_optimum(self):
        # 0.9439388524846092439 to 40 digits by mpmath quadrature of the three 1-dim blocks
        # (1+u)^2/4, (1-u^2)/2 and (1-u)^2/4 of sigma against du/4 (k0), u du/4 (k2) and
        # sqrt(1-u^2) du/4 (k1), each block adding k0 + hypot(k1, k2)
        f = classical_fidelity(GenericState.parallel()).fidelity
        assert abs(f - 0.94393885248460924) <= 1e-15

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


class TestClassicalTable:
    @pytest.mark.parametrize("j2", [100, 1000])
    def test_is_large_j2_limit_of_multipoles(self, j2):
        # block J pairs with m = J - j2, each row signed by (-1)^(j - m1); the gap falls as 1/j2
        m1, labels, j2 = half(0), (half(1), half(2)), half(j2)
        classical = _classical_multipoles(m1, labels)
        worst = 0.0
        for J, (basis, c) in _multipoles(m1, labels, j2).items():
            c_basis, c_cl = classical[J - j2]
            assert basis == c_basis
            signs = np.array([(-1.0) ** ((j.twice - m1.twice) // 2) for j in basis])
            worst = max(worst, float(np.abs(c - c_cl * np.outer(signs, signs)).max()))
        assert worst * float(j2) <= 3.0


class TestAsymptoticDeviation:
    def test_finite_at_zero_rotation(self):
        dev = asymptotic_deviation(GenericState.two_term(0.609), half(10), 0.0)
        assert math.isfinite(dev)

    @pytest.mark.parametrize("state, j2", [
        (GenericState.two_term(0.609), 5),
        (GenericState.from_dict("1/2", {"1/2": 0.6, "5/2": 0.8}), "3/2"),
        # label 2 exceeds j2 = 1/2: block J = 1/2 holds only j1 = 0, classical block m = 0 both
        (GenericState.from_dict(0, {0: 0.6, 2: 0.8}), "1/2"),
    ])
    def test_matches_reference_routes(self, state, j2):
        j2, beta = half(j2), 1.1
        rho, sigma = cg_averaged_state(state, j2, beta), quadrature_sigma(state, beta)
        worst = 0.0
        for J, (basis, mat) in rho.blocks.items():
            s_basis, s_mat = sigma.blocks[J - j2]
            sign = {j: (-1.0) ** ((j.twice - state.m1.twice) // 2) for j in s_basis}
            ref = np.array([[sign[a] * sign[b] * s_mat[s_basis.index(a), s_basis.index(b)]
                             for b in basis] for a in basis])
            worst = max(worst, float(np.abs(mat - ref).max()))
        assert asymptotic_deviation(state, j2, beta) == pytest.approx(worst, abs=1e-13)

    def test_label_beyond_j2_leaves_the_quantum_block(self):
        state = GenericState.from_dict(0, {0: 0.6, 2: 0.8})
        rho, sigma = averaged_state(state, "1/2", 1.1), classical_sigma(state, 1.1)
        assert rho.basis("1/2") == (half(0),)
        assert sigma.basis(0) == (half(0), half(2))

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
        # every half step to 200, and two far j2: a*, the sector and F_parallel are the optimizer's
        # floats; F_opt and F_antiparallel come from the closed form, within roundoff of them
        grid = [HalfInt(t) for t in range(1, 401)] + [half(500), half(5000)]
        r = 1.0 / math.sqrt(2.0)
        for j2, row in zip(grid, sweep_optimal_vs_j2(grid)):
            a_star, sector, result = optimize_state(j2)
            winner = GenericState.two_term(a_star) if sector == 0 else GenericState.parallel()
            assert row.a_star == a_star
            assert row.f_parallel == max_fidelity(GenericState.parallel(), j2,
                                                  certify=False).fidelity
            assert result.fidelity == max_fidelity(winner, j2, certify=False).fidelity
            anti = max_fidelity(GenericState.antiparallel(), j2, certify=False).fidelity
            assert abs(row.f_opt - result.fidelity) <= 1e-15
            assert abs(row.f_antiparallel - anti) <= 1e-15
            # the antiparallel value, whichever the sign of b
            plus, minus = reference_fidelities(half(0), (half(0), half(1)), j2,
                                               np.array([[r, r], [r, -r]]))
            assert plus == minus and abs(plus - anti) <= 1e-15

    @pytest.mark.parametrize("grid", ["12", "5", "", b"12"], ids=repr)
    def test_a_string_is_not_a_grid(self, grid):
        with pytest.raises(TypeError, match="j2_values .* is a string"):
            sweep_optimal_vs_j2(grid)
