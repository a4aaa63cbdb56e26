"""Dense symmetric eigensolver and exact integer polynomial machinery.

Two independent routes to the same spectra live here on purpose: LAPACK's
symmetric eigensolver (`numpy.linalg.eigh`) in floating point, and exact
integer characteristic polynomials (Faddeev-LeVerrier) whose real roots
are bracketed exactly over the rationals.  Agreement between the two
routes is what the verification harness leans on; neither side may be
collapsed into the other.

The float route for D(G^c) is not here: `verify._complements` builds every
D(G^c) and `verify.eigenpairs` solves every stack of them.
`sym_eigenvalues` solves one matrix alone, with sign-fixed eigenvectors,
as the per-graph float reference.

`char_polys_exact` runs Faddeev-LeVerrier on a whole stack of matrices at
once, in numpy `object` dtype, so the coefficients are Python ints of any
size; `char_poly_exact` is its batch of one.

The exact layer computes in Z[x] only.  Sturm chains, gcds and square-free
parts come from primitive pseudo-remainder sequences, so each member is a
positive multiple of its rational counterpart and has the same signs.

Exact roots are bracketed in two phases, with signs taken in integers.
Isolation bisects by counts of distinct roots until each bracket holds one
root of the square-free part; refinement bisects each isolating bracket by
the sign of that part alone.

Floats propose and exact signs decide, in the manner of numeric-first
real root solvers (Sagraloff & Mehlhorn, "Computing real roots of real
polynomials", J. Symb. Comput. 73, 2016).  `sturm_real_roots_many` and
`certify_root_orders` seed the roots of every real-rooted, square-free
polynomial, as the quotient polynomials of equitable partitions mostly
are: the eigenvalues of the Jacobi matrix of its float Sturm sequence,
from one stacked `numpy.linalg.eigh` per degree.  A `_RootCells` record
certifies, by exact signs, one grid cell for each of the deg p roots.  On
the grid where refinement to the tolerance stops, such a record already
names every root, which is then read off with no isolation.  Otherwise
isolation counts roots with a record on a coarser grid or, only where no
record holds, with the square-free Sturm chain; both count alike.
Refinement keeps the bisection cell that a seed names once two exact
signs confirm it.  What floats cannot certify falls back to bisection and
Sturm chains, so no result depends on a float.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

CHAR_POLY_MAX_N = 16
CELL_DEPTH = 30                 # float seeds claim roots on this bisection depth


class TooLargeMatrix(ValueError):
    """Matrix order beyond the exact characteristic polynomial cap."""


class Spectrum:
    """Eigenvalues sorted non-increasing, with eigenvectors and residuals.

    `vectors[:, k]` is the unit eigenvector for `values[k]`, sign-fixed so
    its largest-magnitude entry is positive (making the Perron vector of a
    nonnegative irreducible matrix directly readable off column 0).
    """

    __slots__ = ("values", "vectors", "max_residual")

    def __init__(self, values: np.ndarray, vectors: np.ndarray, max_residual: float):
        self.values = values
        self.vectors = vectors
        self.max_residual = max_residual

    @property
    def lambda1(self) -> float:
        return float(self.values[0])

    @property
    def lambda_n(self) -> float:
        return float(self.values[-1])


def sym_eigenvalues(m) -> Spectrum:
    """All eigenpairs of a real symmetric matrix by LAPACK (`numpy.linalg.eigh`).

    Values are non-increasing, and each eigenvector is negated where its
    largest-magnitude entry is negative.  It is the per-graph float
    reference: the program solves D(G^c) stacks with `verify.eigenpairs`.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be exactly symmetric")
    values, vec = np.linalg.eigh(a)
    values, vec = values[::-1].copy(), vec[:, ::-1].copy()
    lead = vec[np.argmax(np.abs(vec), axis=0), np.arange(len(a))]
    vec *= np.where(lead < 0, -1.0, 1.0)
    residual = np.abs(a @ vec - vec * values).max()
    return Spectrum(values, vec, float(residual))


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
    """Distinct real roots of chain[0] in the half-open interval (lo, hi]:
    skipping zeros, the variations exclude a root at lo and count one at hi."""
    return (_variations(chain, lo.numerator, lo.denominator)
            - _variations(chain, hi.numerator, hi.denominator))


@lru_cache(maxsize=None)
def _squarefree_chain(p: IntPolynomial) -> tuple[tuple[IntPolynomial, ...], IntPolynomial]:
    """The Sturm chain of the square-free part p / gcd(p, p'), and that gcd
    (primitive, positive leading coefficient), built once per process.

    p's own chain is Euclid's algorithm on p and p', so its last member is
    the gcd up to sign, and when the gcd is constant the chain already is
    the square-free part's.
    """
    chain = _sturm_chain(p)
    g = chain[-1] if chain[-1].coeffs[-1] > 0 else -chain[-1]
    if g.degree > 0:
        chain = _sturm_chain(_pdivmod(p, g)[0])
    return tuple(chain), g


def _isolate(oracle, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Isolating brackets, sorted, of the distinct real roots of a square-free f in [lo, hi].

    The oracle, f's Sturm chain or f's `_RootCells` record on the grid of
    the same [lo, hi], counts f's roots above a point and tests for a zero.
    Bisection stops once a bracket (a, b] holds one root, and no right end
    is a root: an exactly-hit root is a zero-width bracket, and the bracket
    to its left is pulled off it.  A point is an integer over den * 2^s.
    """
    a, b, den = _over_common(lo, hi)
    # sign variations exceed the number of roots above a point by a constant
    probe = oracle.probe if oracle.__class__ is _RootCells else lambda n, s: (
        _variations(oracle, n, den << s), _sign_at(oracle[0].coeffs, n, den << s) == 0)
    out: list[tuple[Fraction, Fraction]] = []
    va, zero = probe(a, 0)
    if zero:
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
            vn, zero = probe(b - width, s)
            if not zero and vn - vb == 1:
                return b - width, s, vn

    vb, zero = probe(b, 0)
    s = 0
    if zero:
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
        vm, zero = probe(mid, s)
        if zero:
            nm, t, vn = pull_left(a, mid, s, vm)
            stack.append((a << (t - s), nm, t, va, vn))
        else:
            stack.append((a, mid, s, va, vm))
        stack.append((mid, b, s, vm, vb))
    out.sort(key=lambda ab: ab[0])
    return out


class _RootCells:
    """Every root of p certified alone in a cell of the depth-D bisection
    grid of [lo, hi] (points a 2^D + k (b - a) over den 2^D for lo = a/den,
    hi = b/den, k any integer): the other oracle of `_isolate`.

    A root is claimed on a grid point where p is exactly 0, or in an open
    cell whose ends have exact signs of opposite sign.  Distinct claims hold
    distinct roots, so deg p claims prove deg p real, simple roots, one in
    each, and one sign decides a point inside a claimed cell.  `lefts` and
    `rights` are the claims' ends over den 2^D, ascending.
    """

    def __init__(self, coeffs, den, depth, lefts, rights, right_signs):
        self.coeffs, self.den, self.depth = coeffs, den, depth
        self.lefts, self.rights, self.right_signs = lefts, rights, right_signs

    def probe(self, n: int, s: int) -> tuple[int, bool]:
        """The number of roots above x = n / (den 2^s), and whether p(x) == 0."""
        lefts, rights, t = self.lefts, self.rights, self.depth - s
        # x on the grid's scale: exactly n 2^t, or strictly inside (x - 1, x)
        x = n << t if t >= 0 else -(-n >> -t)
        exact = t >= 0 or x << -t == n
        i = bisect_left(lefts, x)
        above = len(lefts) - i
        if exact and i < len(lefts) and rights[i] == x:
            return above - 1, True
        if i and (rights[i - 1] > x or not exact and rights[i - 1] == x):
            sign = _sign_at(self.coeffs, n, self.den << s)
            if sign == 0:
                return above, True
            above += sign != self.right_signs[i - 1]
        return above, False


def _root_cells(p: IntPolynomial, lo, hi, depth: int, seeds) -> _RootCells | None:
    """p's `_RootCells` on the depth-`depth` grid of the rationals [lo, hi],
    claimed from float seeds of its roots (the cell each names), or None
    when the exact signs do not give deg p claims."""
    a, b, den = _over_common(lo, hi)
    c, span, base, scale = p.coeffs, b - a, a << depth, den << depth
    flo, per_unit = float(lo), 2.0**depth / float(hi - lo)
    claims: dict[tuple[int, int], int] = {}         # (k, k + 1) or (k, k): right sign
    for r in seeds or ():
        t = (r - flo) * per_unit
        if not math.isfinite(t):
            return None
        k = math.floor(t)
        sl, sr = _sign_at(c, base + k * span, scale), _sign_at(c, base + (k + 1) * span, scale)
        if sl == -sr != 0:
            claims[k, k + 1] = sr
        elif sl and sr:
            return None
        claims.update(((j, j), 0) for j, sj in ((k, sl), (k + 1, sr)) if not sj)
    if len(claims) != p.degree:
        return None
    order = sorted(claims)
    return _RootCells(c, den, depth, [base + i * span for i, _ in order],
                      [base + j * span for _, j in order], [claims[ij] for ij in order])


def _float_seeds(polys) -> list[list[float] | None]:
    """Float roots, ascending, of each polynomial with a `_jacobi` matrix,
    else None: its eigenvalues, from one stacked `numpy.linalg.eigh` per degree."""
    by_degree: dict[int, list] = {}
    for i, p in enumerate(polys):
        try:
            jac = _jacobi([float(x) for x in reversed(p.coeffs)])
        except (OverflowError, ZeroDivisionError):      # beyond float range, or p = 0
            continue
        if jac is not None:
            by_degree.setdefault(p.degree, []).append((i, jac))
    out: list[list[float] | None] = [None] * len(polys)
    for d, items in by_degree.items():
        roots = np.linalg.eigh(np.array([j for _, j in items]).reshape(len(items), d, d))[0]
        for (i, _), r in zip(items, roots.tolist()):
            out[i] = r
    return out


def _jacobi(f: list[float]) -> list[list[float]] | None:
    """The tridiagonal matrix with char poly f (coefficients descending), from
    its monic float Sturm sequence f_k = (x - a_k) f_(k-1) - b_k^2 f_(k-2)
    (Schmeisser): None unless all b_k^2 > 0, as just for real simple roots."""
    d = len(f) - 1
    prev = [x / f[0] for x in f]
    cur = [x * (d - i) / d for i, x in enumerate(prev[:-1])]
    jac = [[0.0] * d for _ in range(d)]
    for m in range(d - 1, 0, -1):                   # prev = (x - a) cur - b^2 next
        t = prev[1] - cur[1]
        rem = [p - t * c - n for p, c, n in zip(prev[2:], cur[1:], cur[2:] + [0.0])]
        if not -rem[0] > 0:
            return None
        jac[m][m], jac[m][m - 1] = -t, math.sqrt(-rem[0])
        jac[m - 1][m] = jac[m][m - 1]
        prev, cur = cur, [x / rem[0] for x in rem]
    if d:
        jac[0][0] = -prev[1]
    return jac if math.isfinite(sum(map(sum, jac))) else None


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


def _refine_seeded(fi: IntPolynomial, a: Fraction, b: Fraction, tol: Fraction,
                   seed: float) -> tuple[Fraction, Fraction]:
    """`_refine`'s bracket of the root in (a, b], found from the float estimate seed.

    Bisection to width <= tol ends in one of the 2^K equal cells of (a, b],
    unless it hits the root exactly.  The seed names a cell.  Signs of fi
    at its ends that put the root strictly inside make it bisection's cell;
    a 0 at an end inside (a, b) is a root that bisection meets as a
    midpoint, so its point bracket.  Otherwise, and for a seed that is not
    finite, the bracket is bisected.
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
    """All real roots of p in [lo, hi], sorted, bracketed to width <= tol, a root of
    multiplicity m m times: `sturm_real_roots_many` of the one problem."""
    return sturm_real_roots_many([(p, lo, hi)], tol)[0]


def sturm_real_roots_many(problems, tol: float = 1e-12) -> list[list[float]]:
    """`sturm_real_roots(p, lo, hi, tol)` of each (p, lo, hi) problem, as one batch.

    `_float_seeds` proposes every root at once, and `_real_roots` reads
    the roots the seeds certify off the cells where refinement stops.
    Otherwise the isolation oracle is p's `_RootCells` record on the
    depth-`CELL_DEPTH` grid of [lo, hi] where the seeds give one, else p's
    square-free Sturm chain, with multiplicities from the derivative-gcd
    chain.  Each bracket is refined from the seed in it (`_refine_seeded`);
    a root is its bracket's midpoint.
    """
    problems = list(problems)
    for p, lo, hi in problems:
        if p.is_zero() or not lo < hi:
            raise ValueError("zero polynomial" if p.is_zero() else "need lo < hi")
    if not tol > 0:
        # bisection to a width <= 0 would not end
        raise ValueError("need tol > 0")
    seeds, ftol = _float_seeds([p for p, _, _ in problems]), Fraction(tol)
    return [_real_roots(p, Fraction(lo), Fraction(hi), ftol, s)
            for (p, lo, hi), s in zip(problems, seeds)]


def _real_roots(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: Fraction,
                seeds: list[float] | None) -> list[float]:
    """`_isolated_roots`, read off the cells of depth D, where refinement to
    tol stops, when the seeds certify deg p open ones: each holds one simple
    root, so isolation stops by depth D and refinement ends in that cell,
    whose midpoint is the root, bitwise.  A root on a grid point (lo and hi
    too) or a seed that certifies nothing falls back."""
    a, b, den = _over_common(lo, hi)
    # the least D with (b - a) tol.denominator <= tol.numerator den 2^D
    depth = (((b - a) * tol.denominator - 1) // (tol.numerator * den)).bit_length()
    # `_root_cells` scales the seeds by 2.0**depth, which overflows past 1023
    cells = _root_cells(p, lo, hi, depth, seeds) if depth < 1024 else None
    if cells is None or 0 in cells.right_signs:
        return _isolated_roots(p, lo, hi, tol, seeds)
    first, last, scale = a << depth, b << depth, den << (depth + 1)
    # int true division rounds correctly, as `_isolated_roots`' midpoints do
    return [(l + r) / scale for l, r in zip(cells.lefts, cells.rights) if first <= l and r <= last]


def _isolated_roots(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: Fraction,
                    seeds: list[float] | None) -> list[float]:
    """The roots of p in [lo, hi] by `_isolate`, then `_refine_seeded` of each
    bracket, a root of multiplicity m m times: each its bracket's midpoint."""
    oracle = _root_cells(p, lo, hi, CELL_DEPTH, seeds)
    fi, repeated = p, []
    if oracle is None:
        oracle, g = _squarefree_chain(p)
        fi, seeds = oracle[0], _float_seeds([oracle[0]])[0]
        # gcd chain, ending in a constant: a root of multiplicity m survives
        # into the first m entries
        gchain = [p, g]
        while gchain[-1].degree > 0:
            gchain.append(_gcd(gchain[-1], gchain[-1].derivative()))
        repeated = [_sturm_chain(g) for g in gchain[1:-1]]
    roots: list[float] = []
    for a, b in _isolate(oracle, lo, hi):
        # the seed of the root in (a, b] is the last one <= b, if above a
        j = bisect_right(seeds, float(b)) - 1 if seeds and a != b else -1
        a, b = _refine_seeded(fi, a, b, tol,
                              seeds[j] if j >= 0 and seeds[j] > float(a) else math.nan)
        mult = 1
        while mult <= len(repeated) and _has_root(repeated[mult - 1], a, b):
            mult += 1
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


def extreme_root_bracket(p: IntPolynomial, side: str,
                         width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket of width <= width around the largest or smallest real root:
    `_extreme_isolated`'s bracket, refined by the sign of the square-free part."""
    fi, bracket = _extreme_isolated(p, side)
    return _refine(fi, *bracket, Fraction(width))


def certify_root_order(p: IntPolynomial, q: IntPolynomial, side: str = "max") -> int:
    """`certify_root_orders` of the one pair (p, q)."""
    return certify_root_orders([(p, q)], side)[0]


def certify_root_orders(pairs, side: str = "max") -> list[int]:
    """Exact comparison of the largest ("max") or smallest ("min") real roots
    of each pair (p, q): -1, 0 or +1.

    Each distinct polynomial's extreme root is bracketed once per call, by
    the extreme claim of its `_RootCells` record on the grid of 2^-21 (one
    `_float_seeds` batch) or by `_extreme_isolated`.  Disjoint brackets
    decide at once; otherwise they shrink until disjoint, and a persistent
    overlap is equality when a shared root of gcd(p, q) lies in it.
    """
    if side not in ("max", "min"):
        raise ValueError("side must be 'max' or 'min'")
    pairs = list(pairs)
    polys = list(dict.fromkeys(p for pair in pairs for p in pair))
    k, extreme = (-1 if side == "max" else 0), {}
    for p, seeds in zip(polys, _float_seeds(polys)):
        cells = _root_cells(p, 0, 1, 21, seeds)
        extreme[p] = (_extreme_isolated(p, side) if cells is None or not cells.lefts else
                      (p, (Fraction(cells.lefts[k], 2**21), Fraction(cells.rights[k], 2**21))))
    return [_root_order(p, q, *extreme[p], *extreme[q]) for p, q in pairs]


def _root_order(p: IntPolynomial, q: IntPolynomial, fp, a, fq, b) -> int:
    """The order of the roots of p and q in the brackets a of fp and b of fq,
    each a point (r, r) or a half-open (a, b] whose right end is no root."""
    width, common = Fraction(1, 2**20), None
    for _ in range(8):
        a, b = _refine(fp, *a, width), _refine(fq, *b, width)
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
