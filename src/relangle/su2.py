"""Exact half-integer angular momentum bookkeeping and SU(2) matrix elements.

Labels (j, m, J, M) are carried as :class:`HalfInt` values storing twice the
physical value, so sector arithmetic is exact; the d, CG and coupling
functions read a bare int label as its physical value, as half() does.  All
Wigner small-d and Clebsch-Gordan values are real, in the Condon-Shortley
convention with rotations generated by exp(-i*beta*Jy); only squared d-values
and CG products enter the estimation observables, so the generator sign is
unobservable.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """Invalid angular momentum labels (e.g. |m| > j or mismatched parity)."""


def _on_twice(op, wrap=None):
    """HalfInt method applying op to doubled values; a bare int counts at its value."""
    def method(self, other):
        if isinstance(other, HalfInt):
            t = other.twice
        elif isinstance(other, int):
            t = 2 * other
        else:
            return NotImplemented
        out = op(self.twice, t)
        return out if wrap is None else wrap(out)
    return method


class HalfInt:
    """Half-integer stored as a doubled integer: HalfInt(1) is 1/2, HalfInt(2) is 1."""

    __slots__ = ("twice",)

    def __init__(self, twice):
        if isinstance(twice, HalfInt):
            twice = twice.twice
        if not isinstance(twice, int):
            raise TypeError(f"twice must be an int, got {type(twice).__name__}")
        object.__setattr__(self, "twice", twice)

    @classmethod
    def from_value(cls, value) -> "HalfInt":
        """Build from an int, Fraction, float or string that is (half-)integral."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):  # bool included: half(True) is 1, as through Fraction
            return cls(2 * value)
        if isinstance(value, str):
            return cls.parse(value)
        doubled = Fraction(value) * 2
        if doubled.denominator != 1:
            raise ValueError(f"{value!r} is not a half-integer")
        return cls(int(doubled))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse '1/2', '-3/2' or '2' style labels."""
        frac = Fraction(text.strip())
        if (2 * frac).denominator != 1:
            raise ValueError(f"{text!r} is not a half-integer")
        return cls(int(2 * frac))

    __add__ = _on_twice(operator.add, lambda t: HalfInt(t))
    __sub__ = _on_twice(operator.sub, lambda t: HalfInt(t))
    __eq__ = _on_twice(operator.eq)
    __lt__ = _on_twice(operator.lt)
    __le__ = _on_twice(operator.le)
    __gt__ = _on_twice(operator.gt)
    __ge__ = _on_twice(operator.ge)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))

    def __hash__(self):
        # integral values hash as the equal int, so hashing agrees with ==
        return hash(self.twice // 2 if self.twice % 2 == 0 else self.twice / 2)

    def __float__(self):
        return self.twice / 2.0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


def half(value) -> HalfInt:
    """Shorthand constructor: half(1) -> 1, half('3/2') -> 3/2."""
    return HalfInt.from_value(value)


def check_jm(j: HalfInt, m: HalfInt) -> None:
    """Raise DomainError unless (j, m) is a valid weight pair."""
    if j.twice < 0:
        raise DomainError(f"j = {j} must be nonnegative")
    if abs(m.twice) > j.twice:
        raise DomainError(f"|m| = |{m}| exceeds j = {j}")
    if (j.twice - m.twice) % 2 != 0:
        raise DomainError(f"j = {j} and m = {m} differ by a non-integer")


def m_range(j: HalfInt) -> list[HalfInt]:
    """All weights -j, -j+1, ..., j."""
    return [HalfInt(t) for t in range(-j.twice, j.twice + 1, 2)]


def couple_range(j1: HalfInt, j2: HalfInt) -> list[HalfInt]:
    """Total angular momenta |j1-j2|, ..., j1+j2 in increasing order."""
    j1, j2 = half(j1), half(j2)
    if j1.twice < 0 or j2.twice < 0:
        raise DomainError("coupling labels must be nonnegative")
    lo = abs(j1.twice - j2.twice)
    hi = j1.twice + j2.twice
    return [HalfInt(t) for t in range(lo, hi + 1, 2)]


@lru_cache(maxsize=None)
def _jy_eigenbasis(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues -j..j of J_y, the non-zero parts of its projectors P_k = v_k v_k^dag, their places.

    T = diag(i^r)^dag J_y diag(i^r) is real tridiagonal with eigenvectors w_k, so
    P_k[r, c] = i^(r-c) w_k[r] w_k[c] is real for even r - c, imaginary for odd.
    Row k holds those (2j+1)^2 reals, even r - c first; `place` gives each
    column's flat (r, c) index.
    """
    m = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    # <m+1|T|m> = -sqrt(j(j+1) - m(m+1)) / 2, with j = m[-1]
    off = -0.5 * np.sqrt(m[-1] * (m[-1] + 1.0) - m[:-1] * (m[:-1] + 1.0))
    # eigenvalues ascend, so eigenvector column k belongs to the exact eigenvalue m[k]
    _, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    r, c = np.divmod(np.arange(m.size ** 2), m.size)
    place = np.argsort((r - c) % 2, kind="stable")
    r, c = r[place], c[place]
    sign = np.where((r - c) // 2 % 2, -1.0, 1.0)  # the real or imaginary part of i^(r-c)
    proj = np.empty((m.size, place.size))
    for k, w in enumerate(vecs.T):  # row by row, so no second (2j+1)^3 array is formed
        proj[k] = sign * w[r] * w[c]
    return m, proj, place


def wigner_d_matrix(j: HalfInt, betas) -> np.ndarray:
    """Stack of small-d matrices d^j(beta) over m = -j..j, shape (n, 2j+1, 2j+1).

    d^j(beta) = exp(-i*beta*Jy) = Re sum_k exp(-i*beta*lambda_k) v_k v_k^dag
    over the cached J_y eigenbasis (Feng, Wang, Yang & Jin, PRE 92, 043307
    (2015)), so it stays orthogonal to roundoff at any j.  Any finite beta is
    a rotation; a non-finite one raises DomainError.
    """
    j = half(j)
    check_jm(j, j)
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if not np.isfinite(betas).all():
        raise DomainError(f"beta = {betas[~np.isfinite(betas)][0]} is not finite")
    lam, proj, place = _jy_eigenbasis(j.twice)
    phase = np.outer(lam, betas)
    n_even = (place.size + 1) // 2
    # beta last, so each scattered row is one contiguous run; cos meets Re P, sin Im P
    out = np.empty((place.size, betas.size))
    out[place[:n_even]] = proj[:, :n_even].T @ np.cos(phase)
    out[place[n_even:]] = proj[:, n_even:].T @ np.sin(phase)
    return out.reshape(lam.size, lam.size, -1).transpose(2, 0, 1)


def wigner_d(j: HalfInt, m_row: HalfInt, m_col: HalfInt, beta: float) -> float:
    """Real Wigner small-d element d^j_{m_row, m_col}(beta): one entry of wigner_d_matrix.

    Convention: d^j_{m'm}(beta) = <j m'| exp(-i*beta*Jy) |j m>, so that
    rotating the highest-weight state gives U(beta)|j j> = sum_m d^j_{m j}|j m>.
    """
    j, mr, mc = half(j), half(m_row), half(m_col)
    check_jm(j, mr)
    check_jm(j, mc)
    return float(wigner_d_matrix(j, beta)[0, (j.twice + mr.twice) // 2, (j.twice + mc.twice) // 2])


@lru_cache(maxsize=None)
def _log_binom(twice_j: int) -> np.ndarray:
    """log binom(2j, j+m) over m = -j..j."""
    return np.array([math.lgamma(twice_j + 1) - math.lgamma(a + 1) - math.lgamma(twice_j - a + 1)
                     for a in range(twice_j + 1)])


def _highest_weight_vector(j: HalfInt, beta: float) -> np.ndarray:
    """d^j_{m,j}(beta) over m = -j..j, the rotated highest-weight state.

    Closed form sqrt(binom(2j, j+m)) cos^{j+m}(beta/2) sin^{j-m}(beta/2),
    assembled in log space to dodge overflow of binom(200, 100); free of the
    alternating sum, so it stays accurate up to j ~ 100.  A positive power of
    an exact-zero cos or sin is masked to 0, so no 0 * log 0 is formed.  A
    non-finite beta raises DomainError.
    """
    j = half(j)
    check_jm(j, j)
    if not math.isfinite(beta):
        raise DomainError(f"beta = {beta!r} is not finite")
    a = np.arange(j.twice + 1)  # j + m; j - m is 2j - a
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    log_c = math.log(abs(c)) if c else 0.0
    log_s = math.log(abs(s)) if s else 0.0
    val = np.exp(0.5 * _log_binom(j.twice) + a * log_c + (j.twice - a) * log_s)
    val[((a > 0) & (c == 0.0)) | ((a < j.twice) & (s == 0.0))] = 0.0
    return np.where((c < 0.0) & (a % 2 == 1), -val, val)


def wigner_d_highest(j: HalfInt, m: HalfInt, beta: float) -> float:
    """d^j_{m,j}(beta), one entry of the closed-form column; a non-finite beta raises DomainError."""
    j, m = half(j), half(m)
    check_jm(j, m)
    return float(_highest_weight_vector(j, beta)[(j.twice + m.twice) // 2])


def _racah(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """C^{J M}_{j1 m1, j2 m2} from doubled labels; they must be valid and tM = tm1 + tm2.

    The Racah sum over k, put over the common denominator a! p! q!, is a sum of
    binomial products S; then C^2 = (2J+1) S^2 binom(2j1, a) binom(2j2, a) /
    [(j1+j2+J+1) binom(j1+j2+J, a) binom(2j1, j1-m1) binom(2j2, j2+m2)
    binom(2J, J+M)] is one exact integer ratio, and int / int rounds it once.
    """
    a, p, q = (tj1 + tj2 - tJ) // 2, (tJ + tj1 - tj2) // 2, (tJ - tj1 + tj2) // 2
    b, c = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    s = sum((-1) ** k * math.comb(a, k) * math.comb(p, b - k) * math.comb(q, c - k)
            for k in range(max(0, b - p, c - q), min(a, b, c) + 1))
    num = (tJ + 1) * math.comb(tj1, a) * math.comb(tj2, a) * s * s
    den = ((a + p + q + 1) * math.comb(a + p + q, a) * math.comb(tj1, b) * math.comb(tj2, c)
           * math.comb(tJ, (tJ + tM) // 2))
    return math.copysign(math.sqrt(num / den), s)


@lru_cache(maxsize=None)
def clebsch_gordan(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt,
                   J: HalfInt, M: HalfInt) -> float:
    """Clebsch-Gordan coefficient C^{J M}_{j1 m1, j2 m2} (Racah sum, exact integers).

    Returns 0 when M != m1 + m2.  Python's unbounded integers keep the Racah
    sum exact for any j, so no log-gamma fallback is needed here.
    """
    j1, m1, j2, m2, J, M = (half(x) for x in (j1, m1, j2, m2, J, M))
    check_jm(j1, m1)
    check_jm(j2, m2)
    check_jm(J, M)
    if J.twice not in [x.twice for x in couple_range(j1, j2)]:
        raise DomainError(f"J = {J} not in coupling range of ({j1}, {j2})")
    if M.twice != m1.twice + m2.twice:
        return 0.0
    return _racah(j1.twice, m1.twice, j2.twice, m2.twice, J.twice, M.twice)
