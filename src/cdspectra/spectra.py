"""Dense symmetric eigensolver and exact integer polynomial machinery.

Two independent routes to the same spectra live here on purpose: LAPACK's
symmetric eigensolver (`numpy.linalg.eigh`) in floating point, and exact
integer characteristic polynomials (Faddeev-LeVerrier) whose real roots
are isolated with Sturm sequences over rationals.  Agreement between the
two routes is what the verification harness leans on; neither side may be
collapsed into the other.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CHAR_POLY_MAX_N = 16


class TooLargeMatrix(ValueError):
    """Matrix order beyond the exact characteristic polynomial cap."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing, with eigenvectors and residuals.

    `vectors[:, k]` is the unit eigenvector for `values[k]`, sign-fixed so
    its largest-magnitude entry is positive (making the Perron vector of a
    nonnegative irreducible matrix directly readable off column 0).
    """

    values: np.ndarray
    vectors: np.ndarray
    max_residual: float

    @property
    def lambda1(self) -> float:
        return float(self.values[0])

    @property
    def lambda_n(self) -> float:
        return float(self.values[-1])


def sym_eigenvalues(m) -> Spectrum:
    """All eigenpairs of a real symmetric matrix by LAPACK (`numpy.linalg.eigh`)."""
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    values, vec = np.linalg.eigh(a)
    values, vec = values[::-1].copy(), vec[:, ::-1].copy()
    cols = np.arange(a.shape[0])
    piv = np.argmax(np.abs(vec), axis=0)
    vec[:, vec[piv, cols] < 0] *= -1.0
    residual = float(np.abs(a @ vec - vec * values).max())
    return Spectrum(values, vec, residual)


def verify_eigenpair(m, lam: float, x) -> float:
    """Max-norm residual max_i |lam*x_i - (M x)_i|."""
    a = np.asarray(m, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if v.shape != (a.shape[0],):
        raise ValueError(f"vector length {v.shape} does not match matrix order {a.shape[0]}")
    return float(np.abs(lam * v - a @ v).max())


# --- exact integer polynomials ----------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate polynomial with exact integer coefficients, ascending degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(int(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c if c else (0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and not (k == 0 and not terms):
                continue
            mono = "" if k == 0 else ("L" if k == 1 else f"L^{k}")
            coef = str(c) if (k == 0 or abs(c) != 1) else ("-" if c == -1 else "")
            terms.append(f"{coef}{mono}" if not (coef and mono) else f"{coef}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")


def poly_from_roots(roots) -> IntPolynomial:
    """Monic integer polynomial with the given integer roots."""
    p = IntPolynomial((1,))
    for r in roots:
        p = p * IntPolynomial((-int(r), 1))
    return p


def char_poly_exact(m) -> IntPolynomial:
    """Exact integer coefficients of det(lambda*I - M) by Faddeev-LeVerrier.

    Every per-step trace division is exact over the integers, so the whole
    run stays in arbitrary-precision integer arithmetic (n=16 distance
    matrices overflow 64-bit coefficients comfortably).
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n > CHAR_POLY_MAX_N:
        raise TooLargeMatrix(f"char_poly_exact supports n <= {CHAR_POLY_MAX_N}")
    rows = [[int(a[i, j]) for j in range(n)] for i in range(n)]
    if any(rows[i][j] != a[i, j] for i in range(n) for j in range(n)):
        raise ValueError("matrix entries must be integers")
    # c[k] is the coefficient of lambda^(n-k)
    c = [1]
    mat = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            mat[i][i] += c[-1]
        am = [
            [sum(rows[i][l] * mat[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(am[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by step index")
        c.append(-(tr // k))
        mat = am
    return IntPolynomial(tuple(reversed(c)))


# --- rational polynomial helpers for Sturm sequences -------------------------


def _frac(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _trim(c: list[Fraction]) -> list[Fraction]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _is_zero(c: list[Fraction]) -> bool:
    return all(x == 0 for x in c)


def _scaled(c: list[Fraction]) -> tuple[int, ...]:
    """Integer coefficients of c times the positive lcm of its denominators."""
    m = math.lcm(*(x.denominator for x in c))
    return tuple(x.numerator * (m // x.denominator) for x in c)


def _sign(c: tuple[int, ...], x: Fraction) -> int:
    """Sign of the integer polynomial c at x = a/b, b > 0.

    Homogeneous Horner over ints: sum c_i a^i b^(d-i) = b^d c(x) has the
    sign of c(x) and needs no rational arithmetic.
    """
    a, b = x.numerator, x.denominator
    acc, bk = c[-1], 1
    for ci in c[-2::-1]:
        bk *= b
        acc = acc * a + ci * bk
    return (acc > 0) - (acc < 0)


def _deriv(c: list[Fraction]) -> list[Fraction]:
    return _trim([k * c[k] for k in range(1, len(c))]) if len(c) > 1 else [Fraction(0)]


def _rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = _trim(a[:])
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and not _is_zero(r):
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] / lead
        shift = (len(r) - 1) - db
        for i in range(len(b)):
            r[i + shift] -= q * b[i]
        r.pop()
    return _trim(r) if r else [Fraction(0)]


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a[:]), _trim(b[:])
    while not _is_zero(b):
        a, b = b, _rem(a, b)
    if a[-1] not in (0, 1):
        a = [x / a[-1] for x in a]
    return a


def _divide_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Quotient a/b assuming the division is exact."""
    r = _trim(a[:])
    out = [Fraction(0)] * (len(r) - len(b) + 1)
    while len(r) >= len(b) and not _is_zero(r):
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        out[shift] = q
        for i in range(len(b)):
            r[i + shift] -= q * b[i]
        r.pop()
    return _trim(out)


def _sturm_chain(c: list[Fraction]) -> list[tuple[int, ...]]:
    """Sturm sequence of c, each member scaled to integers (signs unchanged)."""
    chain = [_trim(c[:]), _deriv(c)]
    while not _is_zero(chain[-1]) and len(chain[-1]) > 1:
        chain.append(_trim([-x for x in _rem(chain[-2], chain[-1])]))
    if _is_zero(chain[-1]):
        chain.pop()
    return [_scaled(f) for f in chain]


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign(c, x) for c in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of chain[0] in the half-open interval (lo, hi].

    The zero-skipping sign-variation rule makes the count correct even when
    chain[0] vanishes at an endpoint: a root at lo is excluded, one at hi
    included.
    """
    return _variations(chain, lo) - _variations(chain, hi)


def _squarefree(c: list[Fraction]) -> list[Fraction]:
    g = _gcd(c, _deriv(c))
    return _divide_exact(c, g) if len(g) > 1 else _trim(c[:])


def _isolate_squarefree(f: list[Fraction], lo: Fraction, hi: Fraction,
                        tol: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint brackets, one distinct root of square-free f in each.

    Each bracket (a, b] has width <= tol; an exactly-hit rational root is
    returned as a zero-width bracket.  Covers the closed interval [lo, hi].
    """
    chain = _sturm_chain(f)
    fi = chain[0]
    out: list[tuple[Fraction, Fraction]] = []
    if _sign(fi, lo) == 0:
        out.append((lo, lo))

    def shrink_right(a: Fraction, b: Fraction, cnt: int) -> tuple[Fraction, int]:
        # f(b) == 0: record b, then pull the right end off the root
        while _sign(fi, b) == 0:
            out.append((b, b))
            cnt -= 1
            step = (b - a) / 2
            nb = b - step
            while _sign(fi, nb) == 0 or _count_roots(chain, nb, b) != 1:
                step /= 2
                nb = b - step
            b = nb
        return b, cnt

    stack = []
    hi2, cnt0 = shrink_right(lo, hi, _count_roots(chain, lo, hi))
    stack.append((lo, hi2, cnt0))
    while stack:
        a, b, cnt = stack.pop()
        if cnt <= 0:
            continue
        if cnt == 1 and b - a <= tol:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if _sign(fi, mid) == 0:
            out.append((mid, mid))
            step = (mid - a) / 2
            nm = mid - step
            while _sign(fi, nm) == 0 or _count_roots(chain, nm, mid) != 1:
                step /= 2
                nm = mid - step
            stack.append((a, nm, _count_roots(chain, a, nm)))
            stack.append((mid, b, _count_roots(chain, mid, b)))
        else:
            cl = _count_roots(chain, a, mid)
            stack.append((a, mid, cl))
            stack.append((mid, b, cnt - cl))
    out.sort(key=lambda ab: ab[0])
    return out


def _bracket_has_root(g: list[Fraction], a: Fraction, b: Fraction) -> bool:
    """Whether g vanishes somewhere in the bracket ((a, b], or the point a==b)."""
    if a == b:
        return _sign(_scaled(g), a) == 0
    return _count_roots(_sturm_chain(g), a, b) > 0


def sturm_real_roots(p: IntPolynomial, lo: float, hi: float, tol: float = 1e-12) -> list[float]:
    """All real roots of p in [lo, hi], sorted, bracketed to width <= tol.

    A root of multiplicity m appears m times.  Isolation runs on the
    square-free part; multiplicities come from the derivative-gcd chain.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if p.degree == 0:
        return []
    flo, fhi, ftol = Fraction(lo), Fraction(hi), Fraction(tol)
    f = _frac(p)
    # gcd chain: a root of multiplicity m survives into the first m entries
    gchain = [_trim(f[:])]
    while len(gchain[-1]) > 1:
        g = _gcd(gchain[-1], _deriv(gchain[-1]))
        if len(g) == 1:
            break
        gchain.append(g)
    squarefree = _divide_exact(f, gchain[1]) if len(gchain) > 1 else _trim(f[:])
    roots: list[float] = []
    for a, b in _isolate_squarefree(squarefree, flo, fhi, ftol):
        mult = 1
        for g in gchain[1:]:
            if _bracket_has_root(g, a, b):
                mult += 1
            else:
                break
        roots.extend([float((a + b) / 2)] * mult)
    return sorted(roots)


# --- certified comparison of extreme roots ------------------------------------


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """B such that all real roots of p lie strictly inside [-B, B]."""
    lead = abs(p.coeffs[-1])
    if lead == 0:
        raise ValueError("zero polynomial has no root bound")
    if p.degree == 0:
        return Fraction(1)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def extreme_root_bracket(p: IntPolynomial, side: str,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of width <= width around the largest or smallest real root."""
    if side not in ("max", "min"):
        raise ValueError("side must be 'max' or 'min'")
    bound = cauchy_root_bound(p)
    brackets = _isolate_squarefree(_squarefree(_frac(p)), -bound, bound, width)
    if not brackets:
        raise ValueError("polynomial has no real roots")
    return brackets[-1] if side == "max" else brackets[0]


def certify_root_order(p: IntPolynomial, q: IntPolynomial, side: str = "max") -> int:
    """Exact comparison of the extreme real roots of p and q: -1, 0 or +1.

    Brackets shrink until disjoint; a persistent overlap is resolved by a
    shared root of gcd(p, q) inside the intersection, which certifies
    equality because each bracket isolates a single root.
    """
    width = Fraction(1, 2**20)
    for _ in range(8):
        a = extreme_root_bracket(p, side, width)
        b = extreme_root_bracket(q, side, width)
        if a[1] < b[0]:
            return -1
        if b[1] < a[0]:
            return 1
        g = _gcd(_frac(p), _frac(q))
        if len(g) > 1:
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            if lo <= hi and _bracket_has_root(g, lo, hi):
                return 0
        width /= 2**10
    raise ArithmeticError("could not certify root order")
