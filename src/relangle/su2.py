"""Exact half-integer angular momentum bookkeeping and SU(2) matrix elements.

Labels (j, m, J, M) are carried as :class:`HalfInt` values storing twice the
physical value, so sector arithmetic is exact.  All Wigner small-d and
Clebsch-Gordan values are real, in the Condon-Shortley convention with
rotations generated by exp(-i*beta*Jy); only squared d-values and CG products
enter the estimation observables, so the generator sign is unobservable.
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
    j1, j2 = HalfInt(j1), HalfInt(j2)
    if j1.twice < 0 or j2.twice < 0:
        raise DomainError("coupling labels must be nonnegative")
    lo = abs(j1.twice - j2.twice)
    hi = j1.twice + j2.twice
    return [HalfInt(t) for t in range(lo, hi + 1, 2)]


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return math.factorial(n)


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
    j = HalfInt(j)
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
    j, mr, mc = HalfInt(j), HalfInt(m_row), HalfInt(m_col)
    check_jm(j, mr)
    check_jm(j, mc)
    return float(wigner_d_matrix(j, beta)[0, (j.twice + mr.twice) // 2, (j.twice + mc.twice) // 2])


def wigner_d_highest(j: HalfInt, m: HalfInt, beta: float) -> float:
    """d^j_{m,j}(beta): amplitude of |j m> in the rotated highest-weight state.

    Closed form sqrt(binom(2j, j+m)) cos^{j+m}(beta/2) sin^{j-m}(beta/2);
    free of the alternating sum, so it stays accurate up to j ~ 100.  A
    non-finite beta raises DomainError.
    """
    j, m = HalfInt(j), HalfInt(m)
    check_jm(j, m)
    if not math.isfinite(beta):
        raise DomainError(f"beta = {beta!r} is not finite")
    a, b = (j.twice + m.twice) // 2, (j.twice - m.twice) // 2
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    if (a > 0 and c == 0.0) or (b > 0 and s == 0.0):
        return 0.0
    # assemble in log space to dodge overflow of binom(200, 100)
    log_mag = 0.5 * (math.lgamma(a + b + 1) - math.lgamma(a + 1) - math.lgamma(b + 1))
    if a > 0:
        log_mag += a * math.log(abs(c))
    if b > 0:
        log_mag += b * math.log(abs(s))
    val = math.exp(log_mag)
    return -val if c < 0.0 and a % 2 else val


@lru_cache(maxsize=None)
def clebsch_gordan(j1: HalfInt, m1: HalfInt, j2: HalfInt, m2: HalfInt,
                   J: HalfInt, M: HalfInt) -> float:
    """Clebsch-Gordan coefficient C^{J M}_{j1 m1, j2 m2} (Racah sum, exact rationals).

    Returns 0 when M != m1 + m2.  Python's unbounded integers keep the Racah
    sum exact for any j, so no log-gamma fallback is needed here.
    """
    j1, m1, j2, m2 = HalfInt(j1), HalfInt(m1), HalfInt(j2), HalfInt(m2)
    J, M = HalfInt(J), HalfInt(M)
    check_jm(j1, m1)
    check_jm(j2, m2)
    check_jm(J, M)
    if J.twice not in [x.twice for x in couple_range(j1, j2)]:
        raise DomainError(f"J = {J} not in coupling range of ({j1}, {j2})")
    if M.twice != m1.twice + m2.twice:
        return 0.0

    def iv(x: HalfInt) -> int:
        if x.twice % 2 != 0:
            raise DomainError("non-integer factorial argument")
        return x.twice // 2

    # triangle coefficient and weight factorials, all exact integers
    pref2 = Fraction(J.twice + 1, 1)
    pref2 *= Fraction(
        _fact(iv(j1 + j2 - J)) * _fact(iv(j1 - j2 + J)) * _fact(iv(j2 - j1 + J)),
        _fact(iv(j1 + j2 + J) + 1),
    )
    pref2 *= (
        _fact(iv(J + M)) * _fact(iv(J - M))
        * _fact(iv(j1 - m1)) * _fact(iv(j1 + m1))
        * _fact(iv(j2 - m2)) * _fact(iv(j2 + m2))
    )

    k_min = max(0, iv(j2 - J - m1), iv(j1 + m2 - J))
    k_max = min(iv(j1 + j2 - J), iv(j1 - m1), iv(j2 + m2))
    total = sum(Fraction((-1) ** k, _fact(k) * _fact(iv(j1 + j2 - J) - k) * _fact(iv(j1 - m1) - k)
                         * _fact(iv(j2 + m2) - k) * _fact(iv(J - j2 + m1) + k)
                         * _fact(iv(J - j1 - m2) + k))
                for k in range(k_min, k_max + 1))
    value2 = pref2 * total * total  # = C^2, a rational <= 1
    return math.copysign(math.sqrt(float(value2)), float(total))
