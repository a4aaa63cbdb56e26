"""Dense symmetric eigensolver and exact integer polynomial machinery.

Two independent routes to the same spectra live here on purpose: LAPACK's
symmetric eigensolver (`numpy.linalg.eigh`) in floating point, and exact
integer characteristic polynomials (Faddeev-LeVerrier) whose real roots
are bracketed exactly over the rationals.  Agreement between the two
routes is what the verification harness leans on; neither side may be
collapsed into the other.

`char_polys_exact` runs Faddeev-LeVerrier on a whole stack of matrices at
once, in numpy `object` dtype, so the coefficients are Python ints of any
size; `char_poly_exact` is its batch of one.

The exact layer computes in Z[x] only.  Sturm chains, gcds and square-free
parts come from primitive pseudo-remainder sequences, so each member is a
positive multiple of its rational counterpart and has the same signs.
Each polynomial's square-free Sturm chain is built once per process.

Exact roots are bracketed in two phases.  Isolation bisects by Sturm
counts only until each bracket holds one root of the square-free part.
Refinement then bisects each isolating bracket by the sign of the
square-free part alone.  Both phases take signs in plain integers: a point
is an integer numerator over a power-of-two multiple of one denominator,
and a `Fraction` is built only for a bracket that is returned.
`sturm_real_roots` refines every bracket; `extreme_root_bracket` and
`certify_root_order` refine only the bracket of the largest or smallest
root, and each polynomial's extreme root is bracketed once per process.

Floats propose and exact signs decide, in the manner of numeric-first
real root solvers (Sagraloff & Mehlhorn, "Computing real roots of real
polynomials", J. Symb. Comput. 73, 2016).  `sturm_real_roots` locates
each root by float regula falsi inside its isolating bracket (a bracket
that starts on an exact root takes the sign there from its right end),
and two integer signs confirm that the root lies strictly inside the grid
cell that bisection would end in; the bracket is then bisection's own.
`certify_root_order` takes the extreme root's bracket from float Newton
steps once Sturm counts confirm it.  A seed that is not confirmed, or
coefficients beyond float range, fall back to bisection and isolation,
so no result depends on a float.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    return sym_spectra(a[None])[0]


def sym_spectra(stack) -> list[Spectrum]:
    """`sym_eigenvalues` of every matrix in an (m, n, n) stack, by one stacked `eigh`.

    LAPACK still solves the matrices one at a time, so each spectrum is
    bitwise the one its matrix gives alone; the stack saves the per-call
    overhead.  Values are non-increasing, and each eigenvector is negated
    where its largest-magnitude entry is negative.
    """
    a = np.array(stack, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("stack must hold square matrices")
    if not np.array_equal(a, a.swapaxes(1, 2)):
        raise ValueError("matrix must be exactly symmetric")
    if len(a) == 0:
        return []
    values, vec = np.linalg.eigh(a)
    values, vec = values[:, ::-1].copy(), vec[:, :, ::-1].copy()
    lead = vec[np.arange(len(a))[:, None], np.argmax(np.abs(vec), axis=1), np.arange(a.shape[1])]
    vec *= np.where(lead < 0, -1.0, 1.0)[:, None, :]
    residual = np.abs(a @ vec - vec * values[:, None, :]).max(axis=(1, 2))
    return [Spectrum(values[k], vec[k], float(residual[k])) for k in range(len(a))]


# --- exact integer polynomials ----------------------------------------------


class IntPolynomial:
    """Univariate polynomial with exact integer coefficients, ascending degree.

    A plain class: a dataclass runs generated code at import, and the exact
    layer builds thousands of these.  It is hashed and memoised on, so it
    is never changed after construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = [int(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        self.coeffs: tuple[int, ...] = tuple(c) if c else (0,)

    def __eq__(self, other):
        if other.__class__ is not IntPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"IntPolynomial(coeffs={self.coeffs!r})"

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
        return _from_ints([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self) -> "IntPolynomial":
        return _from_ints([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _from_ints(out)

    def derivative(self) -> "IntPolynomial":
        return _from_ints([k * c for k, c in enumerate(self.coeffs)][1:])

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


def _from_ints(c) -> IntPolynomial:
    """The polynomial with the Python int coefficients c, trailing zeros dropped.

    The exact layer's own results are ints already, so they skip the
    constructor's int() conversion.
    """
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    p = object.__new__(IntPolynomial)
    p.coeffs = tuple(c[:n]) if n else (0,)
    return p


def char_poly_exact(m) -> IntPolynomial:
    """Exact integer coefficients of det(lambda*I - M): `char_polys_exact`
    of the one matrix M."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError("matrix must be square")
    return char_polys_exact(a[None])[0]


def char_polys_exact(stack) -> list[IntPolynomial]:
    """Exact integer coefficients of det(lambda*I - M) for each M of an (m, n, n) stack.

    Faddeev-LeVerrier on the whole stack at once, in numpy `object` dtype,
    so every entry stays an arbitrary-precision Python int (n=16 distance
    matrices overflow 64-bit coefficients comfortably).  Every per-step
    trace division is exact over the integers.
    """
    a = np.asarray(stack)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square")
    n = a.shape[1]
    if n > CHAR_POLY_MAX_N:
        raise TooLargeMatrix(f"char_poly_exact supports n <= {CHAR_POLY_MAX_N}")
    flat = a.ravel().tolist()
    try:
        ints = [int(x) for x in flat]
    except (TypeError, ValueError, OverflowError):      # NaN, +-inf, complex
        ints = None
    if ints is None or ints != flat:
        raise ValueError("matrix entries must be integers")
    a = np.array(ints, dtype=object).reshape(a.shape)
    # c[k] holds each matrix's coefficient of lambda^(n-k)
    c = [np.full(len(a), 1, dtype=object)]
    diag = np.arange(n)
    mat = np.zeros(a.shape, dtype=object)
    for k in range(1, n + 1):
        mat[:, diag, diag] += c[-1][:, None]
        mat = a @ mat
        tr = mat[:, diag, diag].sum(axis=1)
        if any(t % k for t in tr.tolist()):
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by step index")
        c.append(-(tr // k))
    return [_from_ints(col) for col in np.stack(c[::-1], axis=1).tolist()]


# --- integer remainder sequences for Sturm chains ----------------------------


def _primitive(c) -> IntPolynomial:
    """The polynomial with integer coefficients c, divided by their positive gcd."""
    g = math.gcd(*c)
    return _from_ints([x // g for x in c] if g > 1 else c)


def _pdivmod(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Positive multiples of the quotient and remainder of a by b, made primitive.

    Pseudo-division in Z[x]: before each step the running remainder and
    quotient are multiplied by |lc(b)|, so the leading term cancels without
    building a Fraction.  The multiplier is positive, so every sign of the
    rational quotient and remainder is kept.
    """
    bc, db = b.coeffs, b.degree
    lb = bc[-1]
    k = abs(lb)
    r = list(a.coeffs)
    q = [0] * max(len(r) - db, 1)
    while len(r) > db:
        lead = r.pop()
        if lead == 0:
            continue
        t = lead if lb > 0 else -lead
        if k > 1:
            r = [k * x for x in r]
            q = [k * x for x in q]
        shift = len(r) - db
        for i in range(db):
            r[shift + i] -= t * bc[i]
        q[shift] = t
    return _primitive(q), _primitive(r or [0])


def _sign(p: IntPolynomial, x: Fraction) -> int:
    """Sign of p at the rational x."""
    return _sign_at(p.coeffs, x.numerator, x.denominator)


def _sign_at(c: tuple[int, ...], a: int, b: int) -> int:
    """Sign of the polynomial with integer coefficients c at x = a/b, b > 0.

    Homogeneous Horner over ints: sum c_i a^i b^(d-i) = b^d c(x) has the
    sign of c(x) and needs no rational arithmetic.
    """
    acc, bk = c[-1], 1
    for ci in c[-2::-1]:
        bk *= b
        acc = acc * a + ci * bk
    return (acc > 0) - (acc < 0)


def _gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """gcd(a, b), primitive with a positive leading coefficient.

    Euclid on primitive pseudo-remainders, so the result is a positive
    multiple of the monic gcd over the rationals.
    """
    while not b.is_zero():
        a, b = b, _pdivmod(a, b)[1]
    a = _primitive(a.coeffs)
    return -a if a.coeffs[-1] < 0 else a


def _sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """Sturm sequence of p in Z[x].

    Each member is a primitive positive multiple of the member of the
    rational sequence p, p', -rem(p, p'), ..., so every sign is the same.
    """
    chain = [_primitive(p.coeffs), _primitive(p.derivative().coeffs)]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-_pdivmod(chain[-2], chain[-1])[1])
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(chain, a: int, b: int) -> int:
    """Sign variations of the chain at x = a/b, b > 0, zeros skipped."""
    count = last = 0
    for p in chain:
        s = _sign_at(p.coeffs, a, b)
        if s and s != last:
            count += last != 0
            last = s
    return count


def _count_roots(chain, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of chain[0] in the half-open interval (lo, hi].

    The zero-skipping sign-variation rule makes the count correct even when
    chain[0] vanishes at an endpoint: a root at lo is excluded, one at hi
    included.
    """
    return (_variations(chain, lo.numerator, lo.denominator)
            - _variations(chain, hi.numerator, hi.denominator))


@lru_cache(maxsize=None)
def _squarefree_chain(p: IntPolynomial) -> tuple[tuple[IntPolynomial, ...], IntPolynomial]:
    """The Sturm chain of the square-free part p / gcd(p, p'), and that gcd,
    built once per process: the quotient roots and the root orders of a
    grid ask for the same polynomials.

    p's own chain is Euclid's algorithm on p and p', so its last member is
    the gcd up to sign, and when the gcd is constant the chain already is
    the square-free part's.  The gcd is primitive with a positive leading
    coefficient, and chain[0] is a primitive positive multiple of the
    square-free part, as `_gcd` and `_pdivmod` give them.
    """
    chain = _sturm_chain(p)
    g = chain[-1] if chain[-1].coeffs[-1] > 0 else -chain[-1]
    if g.degree > 0:
        chain = _sturm_chain(_pdivmod(p, g)[0])
    return tuple(chain), g


def _isolate(chain, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Isolating brackets of the distinct real roots of chain[0] in [lo, hi].

    chain is the Sturm sequence of a square-free polynomial.  Bisection by
    Sturm counts stops as soon as a bracket (a, b] holds one root, and no
    bracket's right end b is a root: an exactly-hit rational root is
    returned as a zero-width bracket and the bracket to its left is pulled
    off it.  The variation count of each point is computed once and carried
    on the stack.  Brackets are sorted left to right.

    Every point is an integer numerator over den * 2^s, where den is the
    common denominator of lo and hi and s the bisection depth, so signs are
    taken in integers and a Fraction is built only for a returned bracket.
    """
    fc = chain[0].coeffs
    a, b, den = _over_common(lo, hi)
    out: list[tuple[Fraction, Fraction]] = []
    if _sign_at(fc, a, den) == 0:
        out.append((lo, lo))

    def pull_left(a: int, b: int, s: int, vb: int) -> tuple[int, int, int]:
        # f(b) == 0 at b / (den << s): record b, then find a point nb left of
        # it where f is nonzero and (nb, b] holds no root but b; the j-th
        # try is b - (b - a) / 2^j, at depth s + j
        root = Fraction(b, den << s)
        out.append((root, root))
        width = b - a
        while True:
            b, s = 2 * b, s + 1
            nb, d = b - width, den << s
            if _sign_at(fc, nb, d) != 0:
                vn = _variations(chain, nb, d)
                if vn - vb == 1:
                    return nb, s, vn

    va, vb = _variations(chain, a, den), _variations(chain, b, den)
    s = 0
    if _sign_at(fc, b, den) == 0:
        b, s, vb = pull_left(a, b, 0, vb)
        a <<= s
    stack = [(a, b, s, va, vb)]
    while stack:
        a, b, s, va, vb = stack.pop()
        if va - vb <= 0:
            continue
        if va - vb == 1:
            out.append((Fraction(a, den << s), Fraction(b, den << s)))
            continue
        mid, a, b, s = a + b, 2 * a, 2 * b, s + 1
        d = den << s
        vm = _variations(chain, mid, d)
        if _sign_at(fc, mid, d) == 0:
            nm, t, vn = pull_left(a, mid, s, vm)
            stack.append((a << (t - s), nm, t, va, vn))
        else:
            stack.append((a, mid, s, va, vm))
        stack.append((mid, b, s, vm, vb))
    out.sort(key=lambda ab: ab[0])
    return out


def _refine(fi: IntPolynomial, a: Fraction, b: Fraction,
            tol: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect an isolating bracket (a, b] of square-free fi to width <= tol.

    fi(b) != 0 and (a, b] holds one simple root, so one sign decides each
    step: the root lies left of the midpoint iff fi has the sign of fi(b)
    there.  An exactly-hit root is returned as a zero-width bracket.  The
    endpoints are integers over one denominator that doubles each step, so
    the loop builds no Fraction.
    """
    c = fi.coeffs
    lo, hi, den = _over_common(a, b)
    # b - a <= tol  <=>  (hi - lo) * tol.denominator <= tol.numerator * den,
    # and hi - lo stays fixed while den doubles
    width, reach = (hi - lo) * tol.denominator, tol.numerator * den
    if width <= reach:
        return a, b
    sb = _sign_at(c, hi, den)
    while width > reach:
        mid = lo + hi
        lo, hi, den, reach = 2 * lo, 2 * hi, 2 * den, 2 * reach
        s = _sign_at(c, mid, den)
        if s == 0:
            root = Fraction(mid, den)
            return root, root
        if s == sb:
            hi = mid
        else:
            lo = mid
    return Fraction(lo, den), Fraction(hi, den)


def _over_common(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """a and b as integer numerators over their least common denominator."""
    den = math.lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _float_coeffs(c: tuple[int, ...]) -> tuple[float, ...] | None:
    """The integer coefficients c as floats, or None if one is beyond float range."""
    try:
        return tuple(float(x) for x in c)
    except OverflowError:
        return None


def _horner(fc: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(fc):
        acc = acc * x + c
    return acc


def _illinois(fc: tuple[float, ...], a: float, b: float) -> float:
    """A float estimate of the one simple root of fc in (a, b], or NaN.

    Illinois regula falsi: the end that stays put has its value halved, so
    the bracket keeps shrinking from both sides.  It stops when the next
    point does not fall strictly inside the bracket, so it ends on floats.
    A float value 0 at a, as at an exact root left of the bracket's, takes
    the sign of fc between a and the root, which is -sign(fb), and fb's
    size.  NaN when the float values at a and b still do not differ in sign.
    """
    fa, fb = _horner(fc, a), _horner(fc, b)
    if fa == 0:
        fa = -fb
    if not fa * fb < 0:
        return math.nan
    x, side = a, 0
    while True:
        nx = (a * fb - b * fa) / (fb - fa)
        if not a < nx < b:
            return x
        x = nx
        fx = _horner(fc, x)
        if fx == 0 or fx != fx:
            return x
        if (fx > 0) == (fb > 0):
            b, fb = x, fx
            if side == 1:
                fa /= 2
            side = 1
        else:
            a, fa = x, fx
            if side == -1:
                fb /= 2
            side = -1


def _refine_seeded(fi: IntPolynomial, a: Fraction, b: Fraction, tol: Fraction,
                   seed: float) -> tuple[Fraction, Fraction]:
    """`_refine`'s bracket of the root in (a, b], found from the float estimate seed.

    Bisection to width <= tol takes K halvings and ends in one of the 2^K
    equal cells of (a, b], unless it hits the root exactly.  The seed names
    a cell.  When the signs of fi at the cell's ends confirm that the root
    lies strictly inside it, the root is no grid point, so every bisection
    step goes the same way and ends in this very cell.  When fi is 0 at a
    cell end inside (a, b), the root is that grid point, which bisection
    meets as a midpoint, so it returns the point bracket there.  Otherwise,
    and for a seed that is not finite, the bracket is bisected.
    """
    if not math.isfinite(seed):
        return _refine(fi, a, b, tol)
    c = fi.coeffs
    lo, hi, den = _over_common(a, b)
    span = hi - lo
    if span * tol.denominator <= tol.numerator * den:
        return a, b
    # K is the least k with span * tol.denominator <= tol.numerator * den * 2^k
    k = (-(-span * tol.denominator // (tol.numerator * den)) - 1).bit_length()
    sn, sd = seed.as_integer_ratio()
    last = (1 << k) - 1
    j = min(max(((sn * den - lo * sd) << k) // (sd * span), 0), last)
    left, scale = (lo << k) + j * span, den << k
    sb = _sign_at(c, hi, den)
    sl = -sb if j == 0 else _sign_at(c, left, scale)
    sr = sb if j == last else _sign_at(c, left + span, scale)
    if sl == -sb and sr == sb:
        return Fraction(left, scale), Fraction(left + span, scale)
    if sl == 0 or sr == 0:
        root = Fraction(left if sl == 0 else left + span, scale)
        return root, root
    return _refine(fi, a, b, tol)


def _has_root(chain, a: Fraction, b: Fraction) -> bool:
    """Whether chain[0] vanishes somewhere in the bracket ((a, b], or the point a==b)."""
    if a == b:
        return _sign(chain[0], a) == 0
    return _count_roots(chain, a, b) > 0


def sturm_real_roots(p: IntPolynomial, lo: float, hi: float, tol: float = 1e-12) -> list[float]:
    """All real roots of p in [lo, hi], sorted, bracketed to width <= tol.

    A root of multiplicity m appears m times.  The roots of the square-free
    part are isolated by Sturm counts, then every isolating bracket is
    refined to bisection's bracket: seeded by float regula falsi and
    confirmed by two signs, or bisected by the sign of the square-free part
    alone.  Each root is the midpoint of its bracket.  Multiplicities come
    from the derivative-gcd chain.  Every chain is integer: its members are
    positive multiples of the rational ones, so the counts and brackets are
    the same.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not tol > 0:
        # bisection to a width <= 0 would not end
        raise ValueError("need tol > 0")
    if p.degree == 0:
        return []
    ftol = Fraction(tol)
    chain, g = _squarefree_chain(p)
    # gcd chain, ending in a constant: a root of multiplicity m survives
    # into the first m entries
    gchain = [p, g]
    while gchain[-1].degree > 0:
        gchain.append(_gcd(gchain[-1], gchain[-1].derivative()))
    repeated = [_sturm_chain(g) for g in gchain[1:-1]]
    fc = _float_coeffs(chain[0].coeffs)
    roots: list[float] = []
    for a, b in _isolate(chain, Fraction(lo), Fraction(hi)):
        seed = math.nan if fc is None or a == b else _illinois(fc, float(a), float(b))
        a, b = _refine_seeded(chain[0], a, b, ftol, seed)
        mult = 1
        for rchain in repeated:
            if _has_root(rchain, a, b):
                mult += 1
            else:
                break
        # int true division rounds correctly, as float((a + b) / 2) does
        mid = ((a.numerator * b.denominator + b.numerator * a.denominator)
               / (2 * a.denominator * b.denominator))
        roots.extend([mid] * mult)
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


@lru_cache(maxsize=None)
def _extreme_isolated(p: IntPolynomial,
                      side: str) -> tuple[IntPolynomial, tuple[Fraction, Fraction]]:
    """The square-free part of p and the isolating bracket of its largest
    ("max") or smallest ("min") real root, isolated once per process:
    grids compare the same polynomial at many points."""
    if side not in ("max", "min"):
        raise ValueError("side must be 'max' or 'min'")
    bound = cauchy_root_bound(p)
    chain, _ = _squarefree_chain(p)
    brackets = _isolate(chain, -bound, bound)
    if not brackets:
        raise ValueError("polynomial has no real roots")
    return chain[0], brackets[-1] if side == "max" else brackets[0]


def _newton_extreme(fc: tuple[float, ...], x: float, inward: int) -> float:
    """Float Newton steps from x, beyond every real root of fc, toward the
    extreme one: inward is -1 from above, +1 from below.

    Steps are taken while they move x strictly inward, so the loop ends on
    floats; the last point is returned, NaN and overshoot included.
    """
    dc = tuple(k * c for k, c in enumerate(fc))[1:]
    while True:
        d = _horner(dc, x)
        if d == 0:
            return x
        nx = x - _horner(fc, x) / d
        if not (nx - x) * inward > 0:
            return x
        x = nx


def _variations_at_infinity(chain, direction: int) -> int:
    """Sign variations of the chain at +infinity (direction 1) or -infinity (-1)."""
    signs = [(1 if c.coeffs[-1] > 0 else -1) * direction ** c.degree for c in chain]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


@lru_cache(maxsize=None)
def _extreme_seeded(p: IntPolynomial,
                    side: str) -> tuple[IntPolynomial, tuple[Fraction, Fraction]]:
    """The square-free part of p and a bracket of its largest ("max") or
    smallest ("min") real root, found once per process.

    Float Newton from the square-free part's Cauchy bound proposes the
    root, and the bracket of width 2^-20 around it, on the grid of
    2^-21, is kept when Sturm counts show that it holds one root and no
    root lies beyond it.  A right end that is the root gives the point
    bracket.  Otherwise the root is isolated as `_extreme_isolated` does.
    """
    if side not in ("max", "min"):
        raise ValueError("side must be 'max' or 'min'")
    cauchy_root_bound(p)            # rejects the zero polynomial, as isolation does
    chain, _ = _squarefree_chain(p)
    fc = _float_coeffs(chain[0].coeffs)
    if fc is not None and len(fc) > 1:
        inward = -1 if side == "max" else 1
        bound = 1 + max(abs(c) for c in fc[:-1]) / abs(fc[-1])
        t = _newton_extreme(fc, -inward * bound, inward) * 2**21
        if math.isfinite(t):
            k = math.floor(t)
            va, vb = _variations(chain, k - 1, 2**21), _variations(chain, k + 1, 2**21)
            beyond = vb if side == "max" else va
            if va - vb == 1 and beyond == _variations_at_infinity(chain, -inward):
                a, b = Fraction(k - 1, 2**21), Fraction(k + 1, 2**21)
                return chain[0], (b, b) if _sign(chain[0], b) == 0 else (a, b)
    return _extreme_isolated(p, side)


def extreme_root_bracket(p: IntPolynomial, side: str,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of width <= width around the largest or smallest real root.

    Sturm counts isolate every real root inside the Cauchy bound; only the
    bracket of the requested root (the last for "max", the first for
    "min") is then refined, by the sign of the square-free part alone.
    """
    fi, bracket = _extreme_isolated(p, side)
    return _refine(fi, *bracket, Fraction(width))


def certify_root_order(p: IntPolynomial, q: IntPolynomial, side: str = "max") -> int:
    """Exact comparison of the extreme real roots of p and q: -1, 0 or +1.

    Brackets shrink until disjoint; a persistent overlap is resolved by a
    shared root of gcd(p, q) inside the intersection, which certifies
    equality because each bracket isolates a single root.  A bracket is
    either the point (r, r) or the half-open (a, b], whose right end is
    never a root, so two brackets that only touch are disjoint unless they
    are the same point.  Each extreme root is bracketed once, from a float
    seed that Sturm counts confirm (`_extreme_seeded`); a retry refines the
    brackets already found.
    """
    fp, a = _extreme_seeded(p, side)
    fq, b = _extreme_seeded(q, side)
    width = Fraction(1, 2**20)
    common = None
    for _ in range(8):
        a = _refine(fp, *a, width)
        b = _refine(fq, *b, width)
        if a[1] <= b[0] and a != b:
            return -1
        if b[1] <= a[0] and a != b:
            return 1
        if common is None:
            g = _gcd(p, q)
            common = _sturm_chain(g) if g.degree > 0 else []
        if common:
            lo, hi = max(a[0], b[0]), min(a[1], b[1])
            if lo <= hi and _has_root(common, lo, hi):
                return 0
        width /= 2**10
    raise ArithmeticError("could not certify root order")
