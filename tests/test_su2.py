import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from relangle.su2 import (
    _highest_weight_vector,
    _jy_eigenbasis,
    DomainError,
    HalfInt,
    clebsch_gordan,
    couple_range,
    half,
    m_range,
    wigner_d,
    wigner_d_highest,
    wigner_d_matrix,
)


def racah_fraction(tj1, tm1, tj2, tm2, tJ, tM):
    """C^{J M}_{j1 m1, j2 m2} by the Racah sum in exact Fractions, from valid doubled labels.

    The reference the integer kernel must match bit for bit: float() of the
    exact C^2 is correctly rounded, and so is the kernel's int / int.
    """
    f = math.factorial
    a, b, c = (tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tJ - tj2 + tm1) // 2, (tJ - tj1 - tm2) // 2
    pref2 = Fraction((tJ + 1) * f(a) * f((tj1 - tj2 + tJ) // 2) * f((tj2 - tj1 + tJ) // 2),
                     f((tj1 + tj2 + tJ) // 2 + 1))
    pref2 *= (f((tJ + tM) // 2) * f((tJ - tM) // 2) * f(b) * f((tj1 + tm1) // 2)
              * f((tj2 - tm2) // 2) * f(c))
    total = sum(Fraction((-1) ** k, f(k) * f(a - k) * f(b - k) * f(c - k) * f(d + k) * f(e + k))
                for k in range(max(0, -d, -e), min(a, b, c) + 1))
    return math.copysign(math.sqrt(float(pref2 * total * total)), float(total))


def highest_weight_scalar(twice_j, twice_m, beta):
    """d^j_{m,j}(beta) one entry at a time, by the closed form in math-module log space."""
    a, b = (twice_j + twice_m) // 2, (twice_j - twice_m) // 2
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    if (a > 0 and c == 0.0) or (b > 0 and s == 0.0):
        return 0.0
    log_mag = 0.5 * (math.lgamma(a + b + 1) - math.lgamma(a + 1) - math.lgamma(b + 1))
    if a > 0:
        log_mag += a * math.log(abs(c))
    if b > 0:
        log_mag += b * math.log(abs(s))
    val = math.exp(log_mag)
    return -val if c < 0.0 and a % 2 else val


class TestHalfInt:
    def test_parse_rationals(self):
        assert HalfInt.parse("1/2").twice == 1
        assert HalfInt.parse("-3/2").twice == -3
        assert HalfInt.parse("2").twice == 4

    def test_parse_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")
        with pytest.raises(ValueError):
            HalfInt.from_value(0.3)

    def test_arithmetic_and_comparison(self):
        a = half("1/2")
        b = half(1)
        assert (a + b).twice == 3
        assert (b - a) == a
        assert -a == HalfInt(-1)
        assert a < b
        assert abs(HalfInt(-3)) == half("3/2")

    def test_float_and_str(self):
        assert float(half("3/2")) == 1.5
        assert str(half("3/2")) == "3/2"
        assert str(half(2)) == "2"

    def test_equality_with_int(self):
        assert half(1) == 1
        assert half("1/2") != 1

    def test_hashable(self):
        assert len({half(1), HalfInt(2), half("1/2")}) == 2

    def test_bare_int_is_a_physical_value(self):
        assert HalfInt(1) + 1 == half("3/2")
        assert HalfInt(3) - 1 == half("1/2")
        assert HalfInt(1) < 1
        assert not HalfInt(2) > 1
        assert {HalfInt(2): 0}.get(1) == 0
        # the constructor alone keeps the doubled reading
        assert HalfInt(1) == half("1/2")

    def test_non_integral_operand_rejected(self):
        with pytest.raises(TypeError):
            HalfInt(1) + 0.5
        with pytest.raises(TypeError):
            HalfInt(1) < 0.5

    @given(st.integers(-60, 60), st.integers(-30, 30))
    def test_int_operand_matches_half(self, twice, n):
        h = HalfInt(twice)
        assert h + n == h + half(n) == HalfInt(twice + 2 * n)
        assert h - n == h - half(n) == HalfInt(twice - 2 * n)
        assert (h == n) == (h == half(n)) == (twice == 2 * n)
        assert (h < n) == (h < half(n)) == (twice < 2 * n)
        assert (h <= n) == (h <= half(n)) == (twice <= 2 * n)
        assert (h > n) == (h > half(n)) == (twice > 2 * n)
        assert (h >= n) == (h >= half(n)) == (twice >= 2 * n)
        if h == n:
            assert hash(h) == hash(n)

    @given(st.one_of(st.integers(), st.booleans()))
    def test_int_fast_path_matches_fraction_path(self, n):
        # half() on an int skips Fraction; the result must be what Fraction gives
        h = half(n)
        assert type(h) is HalfInt and type(h.twice) is int
        assert h.twice == int(Fraction(n) * 2)
        assert h == half(str(int(n)))

    def test_bool_float_and_string_inputs_unchanged(self):
        assert half(True).twice == 2 and half(False).twice == 0
        assert half(1.5).twice == 3 and half(-2.0).twice == -4
        assert half(Fraction(5, 2)).twice == 5
        assert half(" -3/2 ").twice == -3
        for bad in (0.3, math.nan, "1/3", "x"):
            with pytest.raises(ValueError):
                half(bad)
        with pytest.raises(OverflowError):
            half(math.inf)


class TestBareIntLabels:
    """A bare int label is its physical value, as for half(), in the d, CG and coupling functions."""

    def test_couple_range(self):
        assert couple_range(1, 1) == couple_range(half(1), half(1)) == [0, 1, 2]

    def test_wigner_d(self):
        assert wigner_d_matrix(1, 0.3).shape == (1, 3, 3)
        assert np.array_equal(wigner_d_matrix(1, [0.3, 1.2]), wigner_d_matrix(half(1), [0.3, 1.2]))
        assert wigner_d(2, -1, 1, 0.3) == wigner_d(half(2), half(-1), half(1), 0.3)
        assert wigner_d_highest(2, -1, 0.3) == wigner_d_highest(half(2), half(-1), 0.3)

    def test_clebsch_gordan(self):
        labels = (2, 0, 1, 1, 3, 1)
        got = clebsch_gordan(*labels)
        assert got == clebsch_gordan(*(half(x) for x in labels))
        # J = j1 + 1, m2 = 1: C^2 = (j1 + M)(j1 + M + 1) / ((2j1 + 1)(2j1 + 2)) = 2/5
        assert got == pytest.approx(math.sqrt(0.4), abs=1e-15)


class TestRanges:
    def test_m_range(self):
        assert [m.twice for m in m_range(half("3/2"))] == [-3, -1, 1, 3]

    def test_couple_range(self):
        assert [J.twice for J in couple_range(half(1), half("1/2"))] == [1, 3]

    def test_couple_range_rejects_negative(self):
        with pytest.raises(DomainError):
            couple_range(HalfInt(-2), half(1))

    def test_dimension_count(self):
        # sum of coupled dimensions equals the product dimension
        for j1 in (half("1/2"), half(1), half("5/2"), half(4)):
            for j2 in (half("1/2"), half(2), half("7/2")):
                total = sum(J.twice + 1 for J in couple_range(j1, j2))
                assert total == (j1.twice + 1) * (j2.twice + 1)


class TestWignerD:
    def test_identity_rotation(self):
        assert wigner_d(half(2), half(2), half(2), 0.0) == pytest.approx(1.0, abs=1e-15)
        assert wigner_d(half(2), half(1), half(2), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_invalid_labels(self):
        with pytest.raises(DomainError):
            wigner_d(half("1/2"), half("3/2"), half("1/2"), 0.3)
        with pytest.raises(DomainError):
            wigner_d(half(1), half("1/2"), half(1), 0.3)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 6, 8, 40, 81])
    def test_matches_generator_exponentiation(self, twice_j):
        j = HalfInt(twice_j)
        ms = [float(m) for m in m_range(j)]
        dim = len(ms)
        jy = np.zeros((dim, dim), dtype=complex)
        for k, m in enumerate(ms):
            if k + 1 < dim:
                # raising element <m+1|J+|m> = sqrt(j(j+1) - m(m+1))
                c = math.sqrt(float(j) * (float(j) + 1) - m * (m + 1))
                jy[k + 1, k] += c / 2j
                jy[k, k + 1] -= c / 2j
        betas = (0.3, 1.2, 2.9)
        # the scalar accessor: every entry up to 2j = 8, a strided subset beyond
        labels = m_range(j)
        picks = range(0, dim, max(1, twice_j // 8))
        for beta, d in zip(betas, wigner_d_matrix(j, betas)):
            u = expm(-1j * beta * jy)
            assert np.abs(u.imag).max() < 1e-12
            assert np.abs(d - u.real).max() < 1e-12
            for r in picks:
                for c in picks:
                    assert wigner_d(j, labels[r], labels[c], beta) == pytest.approx(
                        u[r, c].real, abs=1e-12)

    def test_unitarity(self):
        for twice_j in range(1, 9):
            j = HalfInt(twice_j)
            for beta in np.linspace(0.0, math.pi, 50):
                d = np.array([[wigner_d(j, mr, mc, beta) for mc in m_range(j)]
                              for mr in m_range(j)])
                assert np.abs(d.T @ d - np.eye(twice_j + 1)).max() < 1e-12

    def test_orthogonal_at_large_j(self):
        betas = (0.0, 1.3, 2.9, math.pi)
        for twice_j in (30, 31, 32, 40, 81, 100, 200):
            j = HalfInt(twice_j)
            eye = np.eye(twice_j + 1)
            stack = wigner_d_matrix(j, betas)
            assert stack.shape == (len(betas), twice_j + 1, twice_j + 1)
            for d in stack:
                assert np.abs(d.T @ d - eye).max() <= 1e-13
            assert np.abs(stack[0] - eye).max() <= 1e-13
            mid = m_range(j)[twice_j // 2]
            assert wigner_d(j, mid, mid, 0.0) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("twice_j", [0, 1, 2, 7, 40])
    def test_cache_holds_one_real_cube(self, twice_j):
        # one real (2j+1)^3 projector array beside the 2j+1 eigenvalues
        dim = twice_j + 1
        d = wigner_d_matrix(HalfInt(twice_j), [0.0, 0.7])
        assert np.abs(d[0] - np.eye(dim)).max() <= 1e-13
        floats = [a for a in _jy_eigenbasis(twice_j) if a.dtype.kind == "f"]
        assert all(a.dtype == np.float64 for a in floats)
        assert sum(a.size for a in floats) == dim ** 3 + dim

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(DomainError):
            wigner_d(half(1), half(0), half(0), beta)
        with pytest.raises(DomainError):
            wigner_d_matrix(half(1), beta)
        with pytest.raises(DomainError):
            wigner_d_matrix(half(1), [0.3, beta])


class TestWignerDHighest:
    @pytest.mark.parametrize("twice_j", [1, 2, 5, 20, 60, 200])
    def test_squared_closed_form(self, twice_j):
        j = HalfInt(twice_j)
        for beta in (0.0, 0.4, 1.7, math.pi):
            total = 0.0
            for m in m_range(j):
                a = (j.twice + m.twice) // 2
                b = (j.twice - m.twice) // 2
                expect = (math.comb(a + b, a) * math.cos(beta / 2.0) ** (2 * a)
                          * math.sin(beta / 2.0) ** (2 * b))
                got = wigner_d_highest(j, m, beta) ** 2
                assert got == pytest.approx(expect, abs=1e-12)
                total += got
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_general_entry(self):
        for twice_j in (3, 8):
            j = HalfInt(twice_j)
            for m in m_range(j):
                assert wigner_d_highest(j, m, 1.1) == pytest.approx(
                    wigner_d(j, m, j, 1.1), abs=1e-13)
        for twice_j in (3, 8, 40, 81, 100, 200):
            j = HalfInt(twice_j)
            for beta in (0.4, 1.1, 2.9):
                highest = np.array([wigner_d_highest(j, m, beta) for m in m_range(j)])
                column = wigner_d_matrix(j, beta)[0, :, -1]
                assert np.abs(highest - column).max() <= 1e-13

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(DomainError):
            wigner_d_highest(half(1), half(0), beta)

    @pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 2, math.pi, math.pi + 1e-12])
    def test_column_matches_scalar_closed_form(self, beta):
        for twice_j in range(201):
            j = HalfInt(twice_j)
            column = _highest_weight_vector(j, beta)
            scalar = np.array([highest_weight_scalar(twice_j, m.twice, beta) for m in m_range(j)])
            assert np.isfinite(column).all()
            assert np.abs(column - scalar).max() <= 2e-16
            assert wigner_d_highest(j, m_range(j)[-1], beta) == column[-1]


class TestClebschGordan:
    def test_stretch_state(self):
        assert clebsch_gordan(half(1), half(1), half("1/2"), half("1/2"),
                              half("3/2"), half("3/2")) == 1.0

    def test_selection_rule(self):
        assert clebsch_gordan(half(1), half(1), half("1/2"), half("1/2"),
                              half("3/2"), half("1/2")) == 0.0

    def test_invalid_total_j(self):
        with pytest.raises(DomainError):
            clebsch_gordan(half(1), half(0), half("1/2"), half("1/2"),
                           half(3), half("1/2"))

    def test_singlet_from_j_squared_diagonalization(self):
        # couple two spin-1/2: diagonalize J^2 on the 4-dim product space and
        # read off the |0 0> component of |up down>
        sx = np.array([[0, 1], [1, 0]]) / 2.0
        sy = np.array([[0, -1j], [1j, 0]]) / 2.0
        sz = np.array([[1, 0], [0, -1]]) / 2.0
        eye = np.eye(2)
        tot = [np.kron(s, eye) + np.kron(eye, s) for s in (sx, sy, sz)]
        j_sq = sum(t @ t for t in tot)
        vals, vecs = np.linalg.eigh(j_sq)
        singlet = vecs[:, np.argmin(np.abs(vals))].real
        # product order: uu, ud, du, dd; fix the phase so <ud|singlet> > 0
        singlet *= math.copysign(1.0, singlet[1])
        got = clebsch_gordan(half("1/2"), half("1/2"), half("1/2"), half("-1/2"),
                             half(0), half(0))
        assert got == pytest.approx(singlet[1], abs=1e-12)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_orthogonality(self):
        for t1 in range(1, 7):
            for t2 in range(1, 7):
                j1, j2 = HalfInt(t1), HalfInt(t2)
                Js = couple_range(j1, j2)
                # the selection rule M = m1 + m2 kills all M != M' terms, so
                # the double sum over (m1, m2) reduces to a single-M check
                for J in Js:
                    for Jp in Js:
                        for M in m_range(J):
                            if abs(M.twice) > Jp.twice:
                                continue
                            s = sum(
                                clebsch_gordan(j1, m1, j2, M - m1, J, M)
                                * clebsch_gordan(j1, m1, j2, M - m1, Jp, M)
                                for m1 in m_range(j1)
                                if abs((M - m1).twice) <= j2.twice
                            )
                            expect = 1.0 if J == Jp else 0.0
                            assert abs(s - expect) < 1e-12

    @pytest.mark.parametrize("j2", ["1/2", 1, "3/2", 10, "99/2", 50, 100])
    def test_matches_fraction_racah_sum_exactly(self, j2):
        j2 = half(j2)
        checked = 0
        for twice_j1 in range(7):
            j1 = HalfInt(twice_j1)
            for m1 in m_range(j1):
                for J in couple_range(j1, j2):
                    for m2 in m_range(j2):
                        M = m1 + m2
                        if abs(M.twice) > J.twice:
                            continue
                        # uncached, so the run does not fill the lru cache
                        got = clebsch_gordan.__wrapped__(j1, m1, j2, m2, J, M)
                        want = racah_fraction(j1.twice, m1.twice, j2.twice, m2.twice,
                                              J.twice, M.twice)
                        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
                        checked += 1
        assert checked > 0

    def test_large_j_exact_path(self):
        # the Racah sum stays exact at large labels; normalization must hold
        j1, j2 = half(40), half(60)
        J, M = half(100), half(0)
        s = sum(clebsch_gordan(j1, m1, j2, M - m1, J, M) ** 2
                for m1 in m_range(j1) if abs((M - m1).twice) <= j2.twice)
        assert s == pytest.approx(1.0, abs=1e-12)
