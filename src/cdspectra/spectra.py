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

Exact roots come from one search on the bisection grid of an interval
[lo, hi] (`_grid_roots`): a root is the grid point that a midpoint hits,
or the cell that holds it alone once cells are no wider than the
tolerance.  Floats propose and exact signs decide, in the manner of
numeric-first real root solvers (Sagraloff & Mehlhorn, "Computing real
roots of real polynomials", J. Symb. Comput. 73, 2016).  The seeds come
from the caller: the eigenvalues of the matrix whose characteristic
polynomial is being rooted, which the caller has solved already, and
exact integer signs at a seed's cell ends certify its root there.  Where
there are no seeds, or they do not certify every root, as for a repeated
or a complex root, the square-free part's Sturm chain counts the roots of
each cell of the same grid, so no result depends on a float.
`sturm_real_roots_many` returns the cell midpoints, and
`certify_root_orders` compares extreme roots read at ever finer widths.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

CHAR_POLY_MAX_N = 16


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


def _holds_root(chain, l: int, r: int, scale: int) -> bool:
    """Whether chain[0], square-free, vanishes at the point l == r, or in the
    open cell (l, r), over scale: skipping zeros, the variations count the
    roots in (l, r], so a root at r is taken off."""
    if l == r:
        return _sign_at(chain[0].coeffs, l, scale) == 0
    zero_at_r = _sign_at(chain[0].coeffs, r, scale) == 0
    return _variations(chain, l, scale) - _variations(chain, r, scale) > zero_at_r


@lru_cache(maxsize=None)
def _squarefree_chains(p: IntPolynomial) -> tuple[tuple[IntPolynomial, ...], ...]:
    """Sturm chains of the square-free parts of p, g1 = gcd(p, p'),
    g2 = gcd(g1, g1'), ... up to the last non-constant gcd, built once per
    process: the k-th chain's first member vanishes exactly at the roots of
    p of multiplicity > k.

    Each g's own chain is Euclid's algorithm on g and g', so its last member
    is the next gcd up to sign, and when that gcd is constant the chain
    already is the square-free part's.
    """
    chains = []
    while True:
        chain = _sturm_chain(p)
        g = chain[-1] if chain[-1].coeffs[-1] > 0 else -chain[-1]
        if g.degree > 0:
            chain = _sturm_chain(_pdivmod(p, g)[0])
        chains.append(tuple(chain))
        if g.degree == 0:
            return tuple(chains)
        p = g


def _grid_roots(p: IntPolynomial, lo, hi, tol: Fraction,
                seeds) -> list[tuple[int, int, int, int]]:
    """The real roots of p in [lo, hi], ascending, as cells of the bisection grid of [lo, hi].

    Each root is (l, r, scale, m): the open cell (l / scale, r / scale) that
    holds it alone, or the point l == r, and its multiplicity m.  Bisection
    records a root that a midpoint hits (or lo, or hi) as a point, and
    splits a cell that holds a root while it is shallower than the depth D
    where a cell is first no wider than tol, and past D while it holds two
    or more.  A point shallower than D is given on the depth-D grid, so a
    root has one tuple whichever path finds it.  The float seeds' claims on
    the depth-D grid (`_root_cells`), when they account for every root, are
    that answer with no Sturm chain: a simple root alone in its depth-D
    cell, or on a grid point, which bisection meets as a midpoint.
    Otherwise the square-free part's Sturm chain counts the roots of each
    cell, and the gcd chains (as in `_squarefree_chains`) the multiplicities.
    """
    a, b, den = _over_common(lo, hi)
    span = b - a
    # the least D with (b - a) tol.denominator <= tol.numerator den 2^D
    depth = ((span * tol.denominator - 1) // (tol.numerator * den)).bit_length()
    claims = _root_cells(p, lo, hi, depth, seeds)
    if claims is not None:
        base, scale = a << depth, den << depth
        return [(base + i * span, base + j * span, scale, 1)
                for i, j in claims if 0 <= i and j <= 1 << depth]
    chains = _squarefree_chains(p)
    chain, f = chains[0], chains[0][0].coeffs

    def probe(k: int, s: int) -> tuple[int, bool]:
        # the variations at grid point k of depth s, and whether f vanishes there
        n, d = (a << s) + k * span, den << s
        return _variations(chain, n, d), _sign_at(f, n, d) == 0

    (va, zero_lo), (vb, zero_hi) = probe(0, 0), probe(1, 0)
    found = [(0, 0, 0)] if zero_lo else []          # (i, j, s): grid points i, j of depth s
    if zero_hi:
        found.append((1, 1, 0))
    stack = [(0, 0, va, vb, zero_hi)]
    while stack:
        k, s, va, vb, zb = stack.pop()
        count = va - vb - zb                        # distinct roots in the open cell
        if count == 0:
            continue
        if count == 1 and s >= depth:
            found.append((k, k + 1, s))
            continue
        vm, zm = probe(2 * k + 1, s + 1)
        if zm:
            found.append((2 * k + 1, 2 * k + 1, s + 1))
        stack.append((2 * k + 1, s + 1, vm, vb, zb))
        stack.append((2 * k, s + 1, va, vm, zm))
    top = max(s for _, _, s in found) if found else 0
    found.sort(key=lambda ijs: (ijs[0] << (top - ijs[2]), ijs[1] << (top - ijs[2])))
    roots = []
    for i, j, s in found:
        if s < depth:       # a point: on the depth-D grid, as a seed claims it
            i, j, s = i << depth - s, j << depth - s, depth
        l, r, scale = (a << s) + i * span, (a << s) + j * span, den << s
        m = 1
        while m < len(chains) and _holds_root(chains[m], l, r, scale):
            m += 1
        roots.append((l, r, scale, m))
    return roots


def _root_cells(p: IntPolynomial, lo, hi, depth: int, seeds) -> list[tuple[int, int]] | None:
    """The cells of the depth-`depth` bisection grid of [lo, hi] that float
    seeds of p's roots certify, sorted, or None unless they hold deg p roots.

    Grid point k is lo + k (hi - lo) / 2^depth, k any integer; a claim (k, k)
    is a root on point k, and (k, k + 1) a root in the open cell between.
    A seed names the cell it falls in, and exact signs at the cell's ends
    claim a root inside when they are opposite, or on an end where p is 0.
    Distinct claims hold distinct roots, so deg p claims prove deg p real,
    simple roots, one in each.  A seed in a claimed cell, or beside a claimed
    point, ends the search, so a repeated eigenvalue costs two signs at most.
    """
    if seeds is None:
        return None
    a, b, den = _over_common(lo, hi)
    c, span, base, scale = p.coeffs, b - a, a << depth, den << depth
    claims = set()
    for r in seeds:
        if not math.isfinite(r):
            return None
        rn, rd = r.as_integer_ratio()
        k = ((rn * den - a * rd) << depth) // (rd * span)
        if (k, k + 1) in claims or (k, k) in claims or (k + 1, k + 1) in claims:
            return None
        left = base + k * span
        sl, sr = _sign_at(c, left, scale), _sign_at(c, left + span, scale)
        if sl == -sr != 0:
            claims.add((k, k + 1))
        elif sl and sr:
            return None
        if not sl:
            claims.add((k, k))
        if not sr:
            claims.add((k + 1, k + 1))
    return sorted(claims) if len(claims) == p.degree else None


def _over_common(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """a and b as integer numerators over their least common denominator."""
    den = math.lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def sturm_real_roots(p: IntPolynomial, lo: float, hi: float, tol: float = 1e-12) -> list[float]:
    """All real roots of p in [lo, hi], sorted, each the midpoint of its cell of
    width <= tol, a root of multiplicity m m times: `sturm_real_roots_many` of
    the one problem."""
    return sturm_real_roots_many([(p, lo, hi)], tol)[0]


def sturm_real_roots_many(problems, tol: float = 1e-12, seeds=None) -> list[list[float]]:
    """`sturm_real_roots(p, lo, hi, tol)` of each (p, lo, hi) problem, as one batch.

    seeds, when given, holds one list of float roots per problem, or None:
    the caller's eigenvalues of the matrix whose char poly p is.
    `_grid_roots` finds each problem's roots on the bisection grid of its
    [lo, hi], where cells stop at width <= tol: a root is its cell's
    midpoint, or the grid point it lies on, correctly rounded.  A problem
    whose seeds do not certify every root, or that has none, is bisected by
    Sturm counts, on the same grid, to the same cells.
    """
    problems = list(problems)
    seeds = [None] * len(problems) if seeds is None else list(seeds)
    for p, lo, hi in problems:
        if p.is_zero():
            raise ValueError("zero polynomial")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("need finite lo and hi")
        if not lo < hi:
            raise ValueError("need lo < hi")
    if not tol > 0:
        # bisection to a width <= 0 would not end
        raise ValueError("need tol > 0")
    if not math.isfinite(tol):
        raise ValueError("need finite tol")
    ftol = Fraction(tol)
    # int true division rounds correctly
    return [[(l + r) / (2 * scale)
             for l, r, scale, m in _grid_roots(p, Fraction(lo), Fraction(hi), ftol, s)
             for _ in range(m)]
            for (p, lo, hi), s in zip(problems, seeds, strict=True)]


# --- certified comparison of extreme roots ------------------------------------


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """B such that all real roots of p lie strictly inside [-B, B]."""
    lead = abs(p.coeffs[-1])
    if lead == 0:
        raise ValueError("zero polynomial has no root bound")
    if p.degree == 0:
        return Fraction(1)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def certify_root_order(p: IntPolynomial, q: IntPolynomial, side: str = "max") -> int:
    """`certify_root_orders` of the one pair (p, q)."""
    return certify_root_orders([(p, q)], side)[0]


def certify_root_orders(pairs, side: str = "max", seeds=None) -> list[int]:
    """Exact comparison of the largest ("max") or smallest ("min") real roots
    of each pair (p, q): -1, 0 or +1.

    seeds, when given, maps a polynomial to its float roots: the caller's
    eigenvalues of the matrix whose char poly it is.  A polynomial's extreme
    root is the last or first of its `_grid_roots` on [-h, h], h the least
    power of two above ceil(`cauchy_root_bound`) - 1 (in ints), with cells of
    width 2^-20, then 2^-30 and so on, each read once per call.  Cells are
    integer numerators over powers of two, so they compare with no Fraction:
    disjoint cells or points decide at once; overlapping ones are equal roots
    when a root of gcd(p, q) lies in the overlap, else read at the next width.
    """
    if side not in ("max", "min"):
        raise ValueError("side must be 'max' or 'min'")
    seeds, pick, extremes = seeds or {}, (-1 if side == "max" else 0), {}

    def extreme(p: IntPolynomial, e: int) -> tuple[int, int, int]:
        if (p, e) not in extremes:
            *rest, lead = p.coeffs
            if lead == 0:
                raise ValueError("zero polynomial has no root bound")
            half = 1 << (-(-max(map(abs, rest), default=0) // abs(lead))).bit_length()
            roots = _grid_roots(p, -half, half, Fraction(1, 1 << e), seeds.get(p))
            if not roots:
                raise ValueError("polynomial has no real roots")
            extremes[p, e] = roots[pick][:3]
        return extremes[p, e]

    return [_root_order(p, q, extreme) for p, q in pairs]


def _root_order(p: IntPolynomial, q: IntPolynomial, extreme) -> int:
    """The order of the extreme roots of p and q, each `extreme(f, e)` at
    width 2^-e: a point (x, x, s) or an open cell (l, r, s) over the power
    of two s that holds it alone."""
    common = None
    for e in range(20, 100, 10):
        (al, ar, sa), (bl, br, sb) = extreme(p, e), extreme(q, e)
        s = max(sa, sb)
        al, ar, bl, br = al * (s // sa), ar * (s // sa), bl * (s // sb), br * (s // sb)
        if (al, ar) != (bl, br) and (ar <= bl or br <= al):
            return -1 if ar <= bl else 1
        if common is None:
            g = _gcd(p, q)
            common = _squarefree_chains(g)[0] if g.degree > 0 else ()
        if common and _holds_root(common, max(al, bl), min(ar, br), s):
            return 0
    raise ArithmeticError("could not certify root order")
