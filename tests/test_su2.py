import copy
import math
import pickle
import re
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from relangle.su2 import (
    _highest_weight_vector,
    _jy_eigenbasis,
    _signed_sqrt,
    _six_j,
    DomainError,
    HalfInt,
    clebsch_gordan,
    couple_range,
    half,
    m_range,
    wigner_d_matrix,
)
from helpers import cg_column


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
    # the sign from total < 0: float(total) underflows to 0 at large labels, losing it
    return (-1.0 if total < 0 else 1.0) * math.sqrt(float(pref2 * total * total))


def six_j_fraction(tj1, tj2, tj3, tj4, tj5, tj6):
    """{j1 j2 j3; j4 j5 j6} as the exact signed square sign(6j) 6j^2, by Racah's sum in
    Fractions and plain factorials, from doubled labels whose four triads are valid."""
    f = math.factorial

    def delta2(ta, tb, tc):
        return Fraction(f((ta + tb - tc) // 2) * f((ta - tb + tc) // 2) * f((tb + tc - ta) // 2),
                        f((ta + tb + tc) // 2 + 1))

    triads = ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3))
    a = [sum(t) // 2 for t in triads]
    b = [(tj1 + tj2 + tj4 + tj5) // 2, (tj2 + tj3 + tj5 + tj6) // 2, (tj3 + tj1 + tj6 + tj4) // 2]
    total = sum(Fraction((-1) ** t * f(t + 1),
                         math.prod(f(t - x) for x in a) * math.prod(f(y - t) for y in b))
                for t in range(max(a), min(b) + 1))
    return total * abs(total) * math.prod(delta2(*t) for t in triads)


def triangle(ta, tb, tc):
    """Whether doubled labels ta, tb, tc couple: |a - b| <= c <= a + b, a + b + c integral."""
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def highest_weight_scalar(twice_j, twice_m, beta):
    """d^j_{m,j}(beta) one entry at a time, by the closed form in math-module log space."""
    a, b = (twice_j + twice_m) // 2, (twice_j - twice_m) // 2
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    if (a > 0 and c == 0.0) or (b > 0 and s == 0.0):
        return 0.0
    log_mag = 0.5 * math.log(math.comb(a + b, a))
    if a > 0:
        log_mag += a * math.log(abs(c))
    if b > 0:
        log_mag += b * math.log(abs(s))
    val = math.exp(log_mag)
    return -val if c < 0.0 and a % 2 else val


class TestHalfInt:
    def test_parse_rationals(self):
        assert half("1/2").twice == 1
        assert half("-3/2").twice == -3
        assert half("2").twice == 4

    def test_parse_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            half("1/3")
        with pytest.raises(ValueError):
            half(0.3)

    @pytest.mark.parametrize("value, shown", [("1/0", "'1/0'"), (" -3/0", "' -3/0'"),
                                              (math.inf, "inf"), (-math.inf, "-inf"),
                                              (math.nan, "nan"), ("x/2", "'x/2'")])
    def test_malformed_value_raises_value_error_naming_it(self, value, shown):
        # Fraction alone raises ZeroDivisionError for '1/0' and OverflowError for an infinity
        with pytest.raises(ValueError, match=re.escape(f"{shown} is not a half-integer")):
            half(value)

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

    def test_twice_cannot_be_set_or_deleted(self):
        # a label that could change under a dict, an lru_cache key or a frozen state
        h = HalfInt(3)
        table = {h: 1}
        with pytest.raises(AttributeError):
            h.twice = 5
        with pytest.raises(AttributeError):
            del h.twice
        with pytest.raises(AttributeError):
            h._hash = hash(5)
        assert h.twice == 3 and HalfInt(3) in table and hash(h) == hash(1.5)
        j2 = half(2)
        with pytest.raises(AttributeError):
            j2.twice = 6
        assert j2 == 2 and hash(j2) == hash(2)

    def test_copies_and_pickles_are_equal_and_immutable(self):
        from relangle.limits import SweepRow

        for h in (HalfInt(3), HalfInt(-4), HalfInt(0)):
            for twin in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
                assert type(twin) is HalfInt and twin == h and hash(twin) == hash(h)
                with pytest.raises(AttributeError):
                    twin.twice = 1
        row = SweepRow(half("3/2"), 0.6, 0.93, 0.92, 0.91)
        assert asdict(row) == {"j2": half("3/2"), "a_star": 0.6, "f_opt": 0.93,
                               "f_parallel": 0.92, "f_antiparallel": 0.91}

    def test_bare_int_is_a_physical_value(self):
        assert HalfInt(1) + 1 == half("3/2")
        assert HalfInt(3) - 1 == half("1/2")
        assert HalfInt(1) < 1
        assert not HalfInt(2) > 1
        assert {HalfInt(2): 0}.get(1) == 0
        # the constructor alone keeps the doubled reading
        assert HalfInt(1) == half("1/2")

    def test_bool_twice_rejected(self):
        # bool is an int subclass; HalfInt(True) would print True/2 with a bool twice
        for flag in (True, False):
            with pytest.raises(TypeError, match="twice must be an int, got bool"):
                HalfInt(flag)
        assert type(half(True).twice) is int

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
        for bad in (0.3, math.nan, "1/3", "x", math.inf):
            with pytest.raises(ValueError):
                half(bad)


class TestBareIntLabels:
    """A bare int label is its physical value, as for half(), in the d, CG and coupling functions."""

    def test_couple_range(self):
        assert couple_range(1, 1) == couple_range(half(1), half(1)) == [0, 1, 2]

    def test_wigner_d(self):
        assert wigner_d_matrix(1, 0.3).shape == (1, 3, 3)
        assert np.array_equal(wigner_d_matrix(1, [0.3, 1.2]), wigner_d_matrix(half(1), [0.3, 1.2]))
        assert np.array_equal(_highest_weight_vector(2, 0.3), _highest_weight_vector(half(2), 0.3))

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
        d = wigner_d_matrix(half(2), 0.0)[0]  # rows and columns m = -2..2
        assert d[4, 4] == pytest.approx(1.0, abs=1e-15)
        assert d[3, 4] == pytest.approx(0.0, abs=1e-15)

    def test_invalid_labels(self):
        with pytest.raises(DomainError):
            wigner_d_matrix(HalfInt(-1), 0.3)
        with pytest.raises(DomainError):
            wigner_d_matrix(HalfInt(-2), 0.3)

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
        for beta, d in zip(betas, wigner_d_matrix(j, betas)):
            u = expm(-1j * beta * jy)
            assert np.abs(u.imag).max() < 1e-12
            assert np.abs(d - u.real).max() < 1e-12
            # one angle alone is a matrix-vector product, which BLAS rounds differently
            assert np.abs(wigner_d_matrix(j, beta)[0] - u.real).max() < 1e-12

    def test_unitarity(self):
        for twice_j in range(1, 9):
            j = HalfInt(twice_j)
            for beta in np.linspace(0.0, math.pi, 50):
                d = wigner_d_matrix(j, beta)[0]
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
            mid = twice_j // 2
            assert wigner_d_matrix(j, 0.0)[0, mid, mid] == pytest.approx(1.0, abs=1e-13)

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
            wigner_d_matrix(half(1), beta)
        with pytest.raises(DomainError):
            wigner_d_matrix(half(1), [0.3, beta])


class TestWignerDHighest:
    @pytest.mark.parametrize("twice_j", [1, 2, 5, 20, 60, 200])
    def test_squared_closed_form(self, twice_j):
        j = HalfInt(twice_j)
        for beta in (0.0, 0.4, 1.7, math.pi):
            total = 0.0
            column = _highest_weight_vector(j, beta)
            for m in m_range(j):
                a = (j.twice + m.twice) // 2
                b = (j.twice - m.twice) // 2
                expect = (math.comb(a + b, a) * math.cos(beta / 2.0) ** (2 * a)
                          * math.sin(beta / 2.0) ** (2 * b))
                got = column[a] ** 2
                assert got == pytest.approx(expect, abs=1e-12)
                total += got
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_general_entry(self):
        for twice_j in (3, 8, 40, 81, 100, 200):
            j = HalfInt(twice_j)
            for beta in (0.4, 1.1, 2.9):
                highest = _highest_weight_vector(j, beta)
                column = wigner_d_matrix(j, beta)[0, :, -1]
                assert np.abs(highest - column).max() <= 1e-13

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(DomainError):
            _highest_weight_vector(half(1), beta)

    @pytest.mark.parametrize("twice_j", [132, 160, 200])
    @pytest.mark.parametrize("beta", [math.pi / 6, 1.0, 2.9])
    def test_large_entries_match_direct_float_form(self, twice_j, beta):
        # sqrt(comb(2j, a)) c^a s^(2j-a) in floats is within 8.8e-15 of 40-digit values here;
        # a log binomial from lgamma put the column 5.7e-14 to 1.0e-13 off it
        c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
        direct = np.array([math.sqrt(math.comb(twice_j, a)) * c ** a * s ** (twice_j - a)
                           for a in range(twice_j + 1)])
        big = np.abs(direct) >= 0.1 * np.abs(direct).max()
        column = _highest_weight_vector(HalfInt(twice_j), beta)
        assert np.abs(column[big] / direct[big] - 1.0).max() <= 3e-14

    @pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 2, math.pi, math.pi + 1e-12])
    def test_column_matches_scalar_closed_form(self, beta):
        for twice_j in range(201):
            j = HalfInt(twice_j)
            column = _highest_weight_vector(j, beta)
            scalar = np.array([highest_weight_scalar(twice_j, m.twice, beta) for m in m_range(j)])
            assert np.isfinite(column).all()
            assert np.abs(column - scalar).max() <= 2e-16


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

    @pytest.mark.parametrize("j1, m1, J", [(0, 0, 520), ("1/2", "-1/2", "1041/2"), (3, 1, 520)])
    def test_column_beyond_float_range_of_racah_sum(self, j1, m1, J):
        # at 2j2 = 1040 the integer Racah sums of these columns no longer fit in a float
        j1, m1, j2, J = half(j1), half(m1), half(520), half(J)
        got = cg_column(j1, m1, j2, J)
        want = [racah_fraction(j1.twice, m1.twice, j2.twice, m2.twice, J.twice, (m1 + m2).twice)
                if abs((m1 + m2).twice) <= J.twice else 0.0 for m2 in m_range(j2)]
        assert got.tolist() == want
        # the squared column sums to (2J+1)/(2j1+1) over m2
        assert got @ got == pytest.approx((J.twice + 1) / (j1.twice + 1), rel=1e-12)

    def test_large_j_exact_path(self):
        # the Racah sum stays exact at large labels; normalization must hold
        j1, j2 = half(40), half(60)
        J, M = half(100), half(0)
        s = sum(clebsch_gordan(j1, m1, j2, M - m1, J, M) ** 2
                for m1 in m_range(j1) if abs((M - m1).twice) <= j2.twice)
        assert s == pytest.approx(1.0, abs=1e-12)


class TestSixJ:
    @staticmethod
    def reference_labels(tj2):
        """(j1, j1', K, j2, j2, J) doubled, as the multipole table uses them: j1, j1' <= 3."""
        for tj1 in range(7):
            for tj1p in range(tj1 % 2, 7, 2):
                for tk in range(abs(tj1 - tj1p), min(tj1 + tj1p, 2 * tj2) + 1, 2):
                    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                        if triangle(tj1p, tj2, tJ):
                            yield tj1, tj1p, tk, tj2, tj2, tJ

    def test_matches_fraction_racah_sum_exactly(self):
        # 2j2 = 1040 takes the plain factorials of the reference far beyond float range
        checked = 0
        for tj2 in [*range(121), 1040]:
            for labels in self.reference_labels(tj2):
                assert Fraction(*_six_j(*labels)) == six_j_fraction(*labels), labels
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("tj1, tj1p, tj2", [(2, 2, 7), (3, 5, 20), (4, 6, 201), (1, 3, 20000)])
    def test_orthogonality(self, tj1, tj1p, tj2):
        # sum_K (2K+1)(2J+1) {j1 j1' K; j2 j2 J} {j1 j1' K; j2 j2 J'} = delta_{J J'}
        Js = [tJ for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2) if triangle(tj1p, tj2, tJ)]
        ks = [tk for tk in range(abs(tj1 - tj1p), tj1 + tj1p + 1, 2) if tk <= 2 * tj2]
        for tJ in Js:
            for tJp in Js:
                total = sum((tk + 1) * (tJ + 1) * _signed_sqrt(*_six_j(tj1, tj1p, tk, tj2, tj2, tJ))
                            * _signed_sqrt(*_six_j(tj1, tj1p, tk, tj2, tj2, tJp)) for tk in ks)
                assert total == pytest.approx(1.0 if tJ == tJp else 0.0, abs=1e-14)
