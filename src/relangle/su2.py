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
    """Immutable half-integer stored as a doubled integer: HalfInt(1) is 1/2, HalfInt(2) is 1."""

    __slots__ = ("twice", "_hash")

    def __init__(self, twice):
        if type(twice) is not int:  # an exact int skips both checks
            if isinstance(twice, HalfInt):
                twice = twice.twice
            elif not isinstance(twice, int) or isinstance(twice, bool):
                raise TypeError(f"twice must be an int, got {type(twice).__name__}")
        object.__setattr__(self, "twice", twice)  # HalfInt's own __setattr__ refuses
        # hashed once; integral values hash as the equal int, so hashing agrees with ==
        object.__setattr__(self, "_hash", hash(twice / 2 if twice & 1 else twice >> 1))

    def _immutable(self, name, *value):  # dict keys, lru_cache keys and frozen states hold it
        raise AttributeError(f"HalfInt is immutable: cannot set or delete {name}")

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through __init__
        return HalfInt, (self.twice,)

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
        return self._hash

    def __float__(self):
        return self.twice / 2.0

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self})"


def half(value) -> HalfInt:
    """HalfInt of an int, Fraction, float or string that is (half-)integral, else ValueError:
    half(1) -> 1, half('3/2') -> 3/2, half('-3/2') -> -3/2."""
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, int):  # bool included: half(True) is 1, as through Fraction
        return HalfInt(2 * value)
    try:  # Fraction alone raises ZeroDivisionError for '1/0', OverflowError for an infinity
        doubled = Fraction(value.strip() if isinstance(value, str) else value) * 2
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{value!r} is not a half-integer") from exc
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not a half-integer")
    return HalfInt(int(doubled))


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

    Entry [k, r, c] is d^j_{m_r m_c}(beta_k) = <j m_r| exp(-i*beta_k*Jy) |j m_c>, and
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


@lru_cache(maxsize=None)
def _log_binom(twice_j: int) -> np.ndarray:
    """log binom(2j, j+m) over m = -j..j, from the exact integer (lgammas lose 1e-13 at 2j ~ 200)."""
    return np.array([math.log(math.comb(twice_j, a)) for a in range(twice_j + 1)])


def _highest_weight_vector(j: HalfInt, beta: float) -> np.ndarray:
    """d^j_{m,j}(beta) over m = -j..j, the rotated highest-weight state.

    Closed form sqrt(binom(2j, j+m)) cos^{j+m}(beta/2) sin^{j-m}(beta/2), in log space
    against overflow of binom(200, 100); exp amplifies the rounding of exponents of tens,
    so large entries are off by up to about 2e-14 relative at 2j <= 200 and 1e-13 at
    2j = 1000.  A positive power of
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


def _signed_sqrt(num: int, den: int) -> float:
    """sign(num) sqrt(|num| / den), int / int rounded once (copysign would overflow a float num)."""
    return (-1.0 if num < 0 else 1.0) * math.sqrt(abs(num) / den)


def _racah(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> tuple[int, int]:
    """C^{J M}_{j1 m1, j2 m2} as a signed square (num, den), from valid doubled labels, tM = tm1 + tm2.

    The Racah sum over k, put over the common denominator a! p! q!, is a sum of
    binomial products S; then C^2 = (2J+1) S^2 binom(2j1, a) binom(2j2, a) /
    [(j1+j2+J+1) binom(j1+j2+J, a) binom(2j1, j1-m1) binom(2j2, j2+m2)
    binom(2J, J+M)] is one exact integer ratio, and num carries the sign of S.
    """
    a, p, q = (tj1 + tj2 - tJ) // 2, (tJ + tj1 - tj2) // 2, (tJ - tj1 + tj2) // 2
    b, c = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    s = sum((-1) ** k * math.comb(a, k) * math.comb(p, b - k) * math.comb(q, c - k)
            for k in range(max(0, b - p, c - q), min(a, b, c) + 1))
    num = (tJ + 1) * math.comb(tj1, a) * math.comb(tj2, a) * s * abs(s)
    den = ((a + p + q + 1) * math.comb(a + p + q, a) * math.comb(tj1, b) * math.comb(tj2, c)
           * math.comb(tJ, (tJ + tM) // 2))
    return num, den


def _six_j(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int) -> tuple[int, int]:
    """6j symbol {j1 j2 j3; j4 j5 j6} as a signed square (num, den), from doubled labels whose
    four triads are valid.  Racah's sum goes over the common denominator of its terms; there
    (t+1)!/(t - min a)! and each triangle coefficient's (a+b+c+1)! over its largest factorial
    are falling factorials, so one small triad keeps every factor short."""
    triads = ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3))
    a = sorted(sum(triad) // 2 for triad in triads)
    b = ((tj1 + tj2 + tj4 + tj5) // 2, (tj2 + tj3 + tj5 + tj6) // 2, (tj3 + tj1 + tj6 + tj4) // 2)
    lo, hi = a[-1], min(b)
    s = sum((-1) ** t * math.perm(t + 1, a[0] + 1) * math.prod(math.perm(hi - x, hi - t) for x in a[1:])
            * math.prod(math.perm(y - lo, t - lo) for y in b) for t in range(lo, hi + 1))
    num, den = s * abs(s), math.prod(map(math.factorial, [hi - x for x in a[1:]] + [y - lo for y in b])) ** 2
    for ta, tb, tc in triads:  # Delta^2 = x! y! z! / (x+y+z+1)!, with z the largest
        x, y, z = sorted(((ta + tb - tc) // 2, (ta - tb + tc) // 2, (tb + tc - ta) // 2))
        num, den = num * math.factorial(x) * math.factorial(y), den * math.perm(x + y + z + 1, x + y + 1)
    return num, den


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
    return _signed_sqrt(*_racah(j1.twice, m1.twice, j2.twice, m2.twice, J.twice, M.twice))
