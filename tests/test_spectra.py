"""Eigensolver, exact characteristic polynomials, Sturm root isolation."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphcore import diameter_gt3_graphs

from cdspectra.graphcore import complement, distance_matrix, from_edge_mask
from cdspectra.families import build_path
from cdspectra import spectra
from cdspectra.spectra import (
    IntPolynomial,
    TooLargeMatrix,
    _gcd,
    _grid_roots,
    _pdivmod,
    _root_cells,
    _sign_at,
    _squarefree_chains,
    _sturm_chain,
    cauchy_root_bound,
    certify_root_order,
    certify_root_orders,
    char_poly_exact,
    char_polys_exact,
    sturm_real_roots,
    sturm_real_roots_many,
    sym_eigenvalues,
)
from cdspectra.verify import eigenpairs

SQRT3 = math.sqrt(3.0)


def verify_eigenpair(m, lam: float, x) -> float:
    """Max-norm residual max_i |lam*x_i - (M x)_i|."""
    a = np.asarray(m, dtype=np.float64)
    v = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if v.shape != (a.shape[0],):
        raise ValueError(f"vector length {v.shape} does not match matrix order {a.shape[0]}")
    return float(np.abs(lam * v - a @ v).max())


def poly_from_roots(roots) -> IntPolynomial:
    """Monic integer polynomial with the given integer roots."""
    p = IntPolynomial((1,))
    for r in roots:
        p = p * IntPolynomial((-int(r), 1))
    return p


def test_eigenvalues_single_edge():
    s = sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.values, [1.0, -1.0], atol=1e-12)
    assert s.max_residual <= 1e-12


def test_eigenvalues_p3_distance():
    s = sym_eigenvalues(distance_matrix(build_path(3)).astype(float))
    # char poly is x^3 - 6x - 4 = (x+2)(x^2 - 2x - 2)
    assert np.allclose(s.values, [1 + SQRT3, 1 - SQRT3, -2.0], atol=1e-10)


def test_lambda1_p2_exact():
    assert sym_eigenvalues(distance_matrix(build_path(2)).astype(float)).lambda1 == 1.0


def test_path_least_eigenvalue_facts():
    p4 = sym_eigenvalues(distance_matrix(build_path(4)).astype(float))
    p5 = sym_eigenvalues(distance_matrix(build_path(5)).astype(float))
    assert p4.lambda_n < -3.0
    assert p5.lambda_n < -5.0


def test_eigen_requires_symmetric_square():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((2, 3)))


def _ref_sym_eigenvalues(a: np.ndarray):
    """One matrix solved alone, normalised as the spectrum record specifies."""
    values, vec = np.linalg.eigh(a)
    values, vec = values[::-1].copy(), vec[:, ::-1].copy()
    cols = np.arange(a.shape[0])
    vec[:, vec[np.argmax(np.abs(vec), axis=0), cols] < 0] *= -1.0
    return values, vec


def test_stacked_spectra_are_bitwise_the_per_matrix_ones():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 16):
        m = rng.integers(-3, 4, size=(40, n, n)).astype(float)
        m = m + m.swapaxes(1, 2)
        m[:5] = 0.0                         # repeated eigenvalues, where signs are fragile
        values, vectors = eigenpairs(m)
        assert values.shape == (40, n) and vectors.shape == (40, n, n)
        for a, w, x in zip(m, values, vectors):
            want_w, want_x = np.linalg.eigh(a)
            assert w.tobytes() == want_w.tobytes() and x.tobytes() == want_x.tobytes()
            s = sym_eigenvalues(a)
            ref_values, ref_vec = _ref_sym_eigenvalues(a)
            assert s.values.tobytes() == ref_values.tobytes() == w[::-1].tobytes()
            assert s.vectors.tobytes() == ref_vec.tobytes()
            assert s.max_residual < 1e-10
    values, vectors = eigenpairs(np.zeros((0, 4, 4)))
    assert values.shape == (0, 4) and vectors.shape == (0, 4, 4)
    with pytest.raises(ValueError):
        eigenpairs(np.array([[[0.0, 1.0], [2.0, 0.0]]]))
    with pytest.raises(ValueError):
        sym_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((2, 3)))


def test_trace_and_frobenius_invariants():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9, 17, 33):
        m = rng.integers(-4, 5, size=(n, n)).astype(float)
        m = m + m.T
        s = sym_eigenvalues(m)
        assert abs(s.values.sum() - np.trace(m)) < 1e-9
        assert abs((s.values**2).sum() - (m * m).sum()) < 1e-8
        assert s.max_residual < 1e-10
        assert all(s.values[i] >= s.values[i + 1] for i in range(n - 1))


def test_eigenvectors_residuals_on_distance_matrices():
    # solver self-check on D(P6^c)
    g = complement(build_path(6))
    d = distance_matrix(g).astype(float)
    s = sym_eigenvalues(d)
    for k in range(d.shape[0]):
        assert verify_eigenpair(d, float(s.values[k]), s.vectors[:, k]) <= 1e-10


def test_perron_vector_positive():
    d = distance_matrix(build_path(5)).astype(float)
    s = sym_eigenvalues(d)
    assert np.all(s.vectors[:, 0] > 0)


def test_interlacing_random_principal_submatrices():
    rng = np.random.default_rng(2024)
    trials = 0
    while trials < 1000:
        n = int(rng.integers(3, 9))
        mask = int(rng.integers(1, 1 << (n * (n - 1) // 2)))
        g = from_edge_mask(n, mask)
        try:
            d = distance_matrix(g).astype(float)
        except Exception:
            continue
        k = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=k, replace=False).tolist())
        sub = d[np.ix_(keep, keep)]
        full = np.sort(np.linalg.eigvalsh(d))[::-1]
        part = np.sort(np.linalg.eigvalsh(sub))[::-1]
        # lambda_i(full) >= lambda_i(sub) >= lambda_{i+n-k}(full)
        for i in range(k):
            assert full[i] >= part[i] - 1e-9
            assert part[i] >= full[i + n - k] - 1e-9
        trials += 1


def test_verify_eigenpair_examples():
    m = [[0, 1], [1, 0]]
    x = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert verify_eigenpair(m, 1.0, x) <= 1e-15
    assert verify_eigenpair(m, 1.0, np.array([1.0, 0.0])) == 1.0
    with pytest.raises(ValueError):
        verify_eigenpair(m, 1.0, np.array([1.0, 0.0, 0.0]))


def test_char_poly_examples():
    assert char_poly_exact([[0, 1], [1, 0]]).coeffs == (-1, 0, 1)
    assert char_poly_exact(np.eye(3, dtype=int)).coeffs == (-1, 3, -3, 1)
    assert char_poly_exact(distance_matrix(build_path(3))).coeffs == (-4, -6, 0, 1)


def test_char_poly_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        m = rng.integers(-3, 4, size=(n, n))
        ours = np.array(char_poly_exact(m).coeffs[::-1], dtype=float)
        theirs = np.poly(m.astype(float))
        assert np.allclose(ours / ours[0], theirs, atol=1e-6)


def test_char_poly_large_coefficients_exact():
    # a dense symmetric 16x16 integer matrix overflows 64-bit coefficients
    rng = np.random.default_rng(3)
    m = rng.integers(-9, 10, size=(16, 16))
    m = m + m.T
    p = char_poly_exact(m)
    assert p.degree == 16
    assert max(abs(c) for c in p.coeffs) > 2**63
    # sign changes of the exact polynomial bracket every numeric eigenvalue
    for v in np.linalg.eigvalsh(m.astype(float)):
        lo, hi = Fraction(float(v - 1e-5)), Fraction(float(v + 1e-5))
        assert p(lo) * p(hi) <= 0


BAD_MATRICES = [
    (np.eye(17, dtype=int), TooLargeMatrix),
    (np.array([[0.5, 0], [0, 0.5]]), ValueError),
    (np.array([[np.nan, 0], [0, 1.0]]), ValueError),
    (np.array([[np.inf, 0], [0, 1.0]]), ValueError),
    (np.array([[1.0, 0], [0, -np.inf]]), ValueError),
    (np.array([[1, 0], [0, Fraction(1, 2)]], dtype=object), ValueError),
    (np.zeros((2, 3)), ValueError),
]


def test_char_poly_input_validation():
    with pytest.raises(TooLargeMatrix):
        char_poly_exact(np.eye(17, dtype=int))
    with pytest.raises(ValueError):
        char_poly_exact(np.array([[0.5, 0], [0, 0.5]]))
    with pytest.raises(ValueError):
        char_poly_exact(np.zeros((2, 3)))
    # non-finite entries are not integers either, for the batch and for the
    # batch of one
    for bad in (np.nan, np.inf, -np.inf):
        m = np.array([[0.0, 1.0], [1.0, bad]])
        with pytest.raises(ValueError, match="^matrix entries must be integers$"):
            char_poly_exact(m)
        with pytest.raises(ValueError, match="^matrix entries must be integers$"):
            char_polys_exact(np.stack([np.eye(2), m]))


def _ref_char_poly(m) -> tuple[int, ...]:
    """Faddeev-LeVerrier on Python int lists, one matrix at a time: the loop
    that `char_polys_exact` replaced."""
    n = len(m)
    rows = [[int(x) for x in row] for row in m]
    c = [1]
    mat = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            mat[i][i] += c[-1]
        am = [[sum(rows[i][l] * mat[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0
        c.append(-(tr // k))
        mat = am
    return tuple(reversed(c))


@settings(max_examples=40)
@given(n=st.integers(1, 16), m=st.integers(1, 3),
       kind=st.sampled_from(["small", "negative", "huge"]), seed=st.integers(0, 2**32 - 1))
def test_char_polys_equal_the_per_matrix_reference(n, m, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "small":
        stack = rng.integers(0, 4, size=(m, n, n))
    elif kind == "negative":
        stack = rng.integers(-20, 0, size=(m, n, n))
    else:
        # entries beyond 2^63 only fit an object stack
        hi = rng.integers(-2**31, 2**31, size=(m, n, n)).tolist()
        lo = rng.integers(0, 2**63, size=(m, n, n), dtype=np.uint64).tolist()
        stack = np.array(hi, dtype=object) * 2**64 + np.array(lo, dtype=object)
        assert max(abs(x) for x in stack.ravel().tolist()) > 2**63
    polys = char_polys_exact(stack)
    assert [p.coeffs for p in polys] == [_ref_char_poly(a.tolist()) for a in stack]
    assert all(type(c) is int for p in polys for c in p.coeffs)
    assert polys[0] == char_poly_exact(stack[0])


def test_char_polys_edge_cases_and_errors():
    # a dense symmetric 16x16 stack whose coefficients pass 2^63
    rng = np.random.default_rng(3)
    stack = rng.integers(-9, 10, size=(3, 16, 16))
    stack = stack + stack.swapaxes(1, 2)
    polys = char_polys_exact(stack)
    assert [p.coeffs for p in polys] == [_ref_char_poly(a.tolist()) for a in stack]
    assert all(max(abs(c) for c in p.coeffs) > 2**63 for p in polys)
    assert char_polys_exact(np.zeros((0, 5, 5), dtype=int)) == []
    # the batch raises what the batch of one raises, word for word
    for bad, kind in BAD_MATRICES:
        with pytest.raises(kind) as one:
            char_poly_exact(bad)
        with pytest.raises(kind) as batch:
            char_polys_exact(bad[None])
        assert str(batch.value) == str(one.value)
    with pytest.raises(ValueError, match="^matrix must be square$"):
        char_polys_exact(np.eye(3))


def test_sturm_simple_roots():
    assert sturm_real_roots(IntPolynomial((-2, 0, 1)), 0, 2, 1e-9) == pytest.approx(
        [math.sqrt(2)], abs=1e-8)
    roots = sturm_real_roots(IntPolynomial((-4, -6, 0, 1)), -10, 10, 1e-10)
    assert roots == pytest.approx([-2.0, 1 - SQRT3, 1 + SQRT3], abs=1e-9)
    # a width below any float's spacing: refinement goes past 2^-1023
    assert sturm_real_roots(IntPolynomial((-2, 0, 1)), 0, 2, 5e-324) == [math.sqrt(2)]


def test_sturm_multiplicities_and_exact_hits():
    # (x^2-2)^2 (x+1): double roots at +-sqrt(2), single at -1
    p = IntPolynomial((-2, 0, 1)) * IntPolynomial((-2, 0, 1)) * IntPolynomial((1, 1))
    roots = sturm_real_roots(p, -3, 3, 1e-9)
    assert roots == pytest.approx(
        [-math.sqrt(2), -math.sqrt(2), -1.0, math.sqrt(2), math.sqrt(2)], abs=1e-8)
    # integer roots at the bracket ends are reported exactly
    assert sturm_real_roots(IntPolynomial((-4, 0, 1)), -2, 2, 1e-9) == [-2.0, 2.0]
    assert sturm_real_roots(poly_from_roots([1, 2, 3]), 0, 10, 1e-10) == pytest.approx(
        [1.0, 2.0, 3.0], abs=1e-9)


def test_sturm_no_roots_and_validation():
    assert sturm_real_roots(IntPolynomial((1, 0, 1)), -5, 5, 1e-9) == []
    with pytest.raises(ValueError):
        sturm_real_roots(IntPolynomial((0,)), -1, 1)
    with pytest.raises(ValueError):
        sturm_real_roots(IntPolynomial((1, 1)), 2, 1)
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError, match="need tol > 0"):
            sturm_real_roots(IntPolynomial((-2, 0, 1)), -5, 5, tol)
    # infinite ends or widths are refused before any Fraction is built
    with pytest.raises(ValueError, match="^need finite tol$"):
        sturm_real_roots(IntPolynomial((-2, 0, 1)), 0, 1, math.inf)
    for lo, hi in ((-math.inf, 1), (0, math.inf), (-math.inf, math.inf), (math.nan, 1)):
        with pytest.raises(ValueError, match="^need finite lo and hi$"):
            sturm_real_roots(IntPolynomial((-2, 0, 1)), lo, hi)
    with pytest.raises(ValueError, match="^need lo < hi$"):
        sturm_real_roots(IntPolynomial((1, 1)), 1, 1)


def test_sturm_agrees_with_jacobi_on_symmetric_integer_matrices():
    rng = np.random.default_rng(42)
    for n in (3, 5, 8, 12, 16):
        m = rng.integers(-2, 3, size=(n, n))
        _assert_exact_roots_match_lapack(m + m.T)


def _fraction_horner(c, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for k in reversed(c):
        acc = acc * x + k
    return acc


def test_integer_sign_matches_fraction_horner():
    rng = np.random.default_rng(77)
    denominators = (1, 2, 3, 7, 12, 2**20, 3**9 * 5, 1021)
    for _ in range(400):
        deg = int(rng.integers(0, 9))
        c = [int(v) for v in rng.integers(-50, 51, size=deg + 1)]
        c[-1] = c[-1] or 1
        b = int(rng.choice(denominators))
        x = Fraction(int(rng.integers(-40 * b, 40 * b + 1)), b)
        ref = _fraction_horner(c, x)
        assert _sign_at(tuple(c), x.numerator, x.denominator) == (ref > 0) - (ref < 0)
    # exact rational roots, including non-dyadic ones, give sign 0
    for r in (Fraction(1, 3), Fraction(-5, 7), Fraction(22, 9), Fraction(0), Fraction(-4)):
        c = IntPolynomial((-r.numerator, r.denominator)) * IntPolynomial((3, 0, 1))
        assert _sign_at(c.coeffs, r.numerator, r.denominator) == 0
        x = r + Fraction(1, 10**9)
        assert _sign_at(c.coeffs, x.numerator, x.denominator) != 0


def test_quotient_poly_roots_inside_full_spectrum():
    # roots of the H(2,2) quotient polynomial appear in the 6x6 spectrum
    from cdspectra.families import build_H, cell_groups, cell_quotient
    dc = distance_matrix(complement(build_H(2, 2)))
    ((_, sizes, dist),) = cell_groups([("H", (2, 2))])
    poly = char_poly_exact(cell_quotient(sizes[0].tolist(), dist))
    roots = sturm_real_roots(poly, -12, 12, 1e-10)
    dc = dc.astype(float)
    vals = sym_eigenvalues(dc).values
    for r in roots:
        assert min(abs(r - v) for v in vals) < 1e-9


def test_certified_root_order():
    a = IntPolynomial((-2, 0, 1))       # roots +-sqrt(2)
    b = IntPolynomial((-3, 0, 1))       # roots +-sqrt(3)
    assert certify_root_order(a, b, "max") == -1
    assert certify_root_order(b, a, "max") == 1
    assert certify_root_order(a, b, "min") == 1
    # shared extreme root through a common factor
    c = a * IntPolynomial((1, 1))
    assert certify_root_order(a, c, "max") == 0
    assert certify_root_orders([(a, b), (b, a), (a, c)], "max") == [-1, 1, 0]
    for p in (IntPolynomial((1, 0, 1)), IntPolynomial((5,))):
        with pytest.raises(ValueError, match="^polynomial has no real roots$"):
            certify_root_order(p, a)
    with pytest.raises(ValueError, match="^side must be 'max' or 'min'$"):
        certify_root_order(a, b, "mid")


def test_certified_order_of_an_exact_root_touching_a_bracket():
    # the largest root 0 of x is a grid point; x(10^9 x - 1) has its largest
    # root 1e-9 in the cell (0, 2^-20), which starts at the shared root 0
    p = IntPolynomial((0, 1))
    q = IntPolynomial((0, -1, 10**9))
    assert sturm_real_roots(p, -1, 1, 2.0**-20) == [0.0]
    assert sturm_real_roots(q, -1, 1, 2.0**-20) == [0.0, 2.0**-21]
    assert certify_root_order(p, q, "max") == -1
    assert certify_root_order(q, p, "max") == 1
    assert certify_root_order(p, p * IntPolynomial((1, 1)), "max") == 0


def test_int_polynomial_arithmetic():
    p = IntPolynomial((1, 2, 1))
    q = IntPolynomial((1, 1))
    assert (q * q).coeffs == p.coeffs
    assert (p - p).is_zero()
    assert p.derivative().coeffs == (2, 2)
    assert p(Fraction(1, 2)) == Fraction(9, 4)
    assert IntPolynomial((0, 0, 0)).is_zero()
    assert str(IntPolynomial((-4, -6, 0, 1))) == "L^3 - 6*L - 4"


# --- reference: grid bisection on rational Sturm chains, in Fractions --------


def _ref_frac(p):
    return [Fraction(c) for c in p.coeffs]


def _ref_trim(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _ref_is_zero(c):
    return all(x == 0 for x in c)


def _ref_scaled(c):
    m = math.lcm(*(x.denominator for x in c))
    return IntPolynomial(tuple(x.numerator * (m // x.denominator) for x in c))


def _ref_deriv(c):
    return _ref_trim([k * c[k] for k in range(1, len(c))]) if len(c) > 1 else [Fraction(0)]


def _ref_rem(a, b):
    r = _ref_trim(a[:])
    db, lead = len(b) - 1, b[-1]
    while len(r) - 1 >= db and not _ref_is_zero(r):
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] / lead
        shift = (len(r) - 1) - db
        for i in range(len(b)):
            r[i + shift] -= q * b[i]
        r.pop()
    return _ref_trim(r) if r else [Fraction(0)]


def _ref_gcd(a, b):
    a, b = _ref_trim(a[:]), _ref_trim(b[:])
    while not _ref_is_zero(b):
        a, b = b, _ref_rem(a, b)
    if a[-1] not in (0, 1):
        a = [x / a[-1] for x in a]
    return a


def _ref_divide_exact(a, b):
    r = _ref_trim(a[:])
    out = [Fraction(0)] * (len(r) - len(b) + 1)
    while len(r) >= len(b) and not _ref_is_zero(r):
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        out[shift] = q
        for i in range(len(b)):
            r[i + shift] -= q * b[i]
        r.pop()
    return _ref_trim(out)


def _ref_rational_chain(c):
    """Sturm sequence c, c', -rem(c, c'), ... over the rationals."""
    chain = [_ref_trim(c[:]), _ref_deriv(c)]
    while not _ref_is_zero(chain[-1]) and len(chain[-1]) > 1:
        chain.append(_ref_trim([-x for x in _ref_rem(chain[-2], chain[-1])]))
    if _ref_is_zero(chain[-1]):
        chain.pop()
    return chain


def _ref_sturm_chain(c):
    """The rational Sturm sequence, each member scaled to integers by the lcm
    of its denominators."""
    return [_ref_scaled(f) for f in _ref_rational_chain(c)]


def _ref_squarefree(c):
    g = _ref_gcd(c, _ref_deriv(c))
    return _ref_divide_exact(c, g) if len(g) > 1 else _ref_trim(c[:])


def _ref_sign(p: IntPolynomial, x: Fraction) -> int:
    """Sign of p at the rational x = n / d: of the sum of c_i n^i d^(deg - i)."""
    n, d, k = x.numerator, x.denominator, p.degree
    v = sum(c * n**i * d ** (k - i) for i, c in enumerate(p.coeffs))
    return (v > 0) - (v < 0)


def _ref_variations(chain, x: Fraction) -> int:
    signs = [s for s in (_ref_sign(f, x) for f in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _ref_open_count(chain, a: Fraction, b: Fraction) -> int:
    """Distinct roots of chain[0] in the open (a, b), or at the point a == b."""
    if a == b:
        return int(_ref_sign(chain[0], a) == 0)
    return (_ref_variations(chain, a) - _ref_variations(chain, b)
            - (_ref_sign(chain[0], b) == 0))


@functools.lru_cache(maxsize=None)
def _ref_levels(p):
    """Rational Sturm chains of the square-free parts of p, gcd(p, p'), ..."""
    f, levels = _ref_frac(p), []
    while len(f) > 1:
        levels.append(_ref_sturm_chain(_ref_squarefree(f)))
        f = _ref_gcd(f, _ref_deriv(f))
    return levels


def _reference_grid(p, lo, hi, tol):
    """The roots of p in [lo, hi] as (a, b, multiplicity), ascending.

    Grid bisection of [lo, hi] in Fractions, each step decided by rational
    Sturm counts.  A root on lo, hi or a midpoint is the point (a, a); a
    cell (a, b) that holds a root is split while it is wider than tol, and
    while it holds two or more.  The multiplicity is the number of
    gcd(f, f')-chain members, f = p first, that vanish in the cell.
    """
    lo, hi, tol = Fraction(lo), Fraction(hi), Fraction(tol)
    levels = _ref_levels(p)
    if not levels:
        return []
    chain = levels[0]

    def zero(x):
        return _ref_sign(chain[0], x) == 0

    found = [(x, x) for x in (lo, hi) if zero(x)]
    # a cell with the variations at its ends, which count the roots in (a, b]
    stack = [(lo, hi, _ref_variations(chain, lo), _ref_variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb - zero(b)
        if count == 1 and b - a <= tol:
            found.append((a, b))
        elif count:
            mid = (a + b) / 2
            vm = _ref_variations(chain, mid)
            if zero(mid):
                found.append((mid, mid))
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
    return [(a, b, sum(_ref_open_count(c, a, b) > 0 for c in levels)) for a, b in sorted(found)]


def _reference_roots(p, lo, hi, tol):
    """sturm_real_roots through the reference: cell midpoints, with multiplicity."""
    return [float((a + b) / 2) for a, b, m in _reference_grid(p, lo, hi, tol) for _ in range(m)]


def _reference_extreme(p, side, width):
    bound = cauchy_root_bound(p)
    roots = _reference_grid(p, -bound, bound, width)
    if not roots:
        raise ValueError("polynomial has no real roots")
    return roots[-1 if side == "max" else 0][:2]


def _reference_order(p, q, side):
    """certify_root_order through the reference: the extreme roots on
    [-B, B] at widths 2^-20, 2^-30, ..., equal where a root of gcd(p, q)
    lies in both."""
    g = _ref_gcd(_ref_frac(p), _ref_frac(q))
    width = Fraction(1, 2**20)
    for _ in range(8):
        a, b = _reference_extreme(p, side, width), _reference_extreme(q, side, width)
        if a[1] <= b[0] and a != b:
            return -1
        if b[1] <= a[0] and a != b:
            return 1
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        if len(g) > 1 and _ref_open_count(_ref_sturm_chain(_ref_squarefree(g)), lo, hi):
            return 0
        width /= 2**10
    raise ArithmeticError("could not certify root order")


WIDTHS = (Fraction(1, 2**20), Fraction(1, 2**30), Fraction(1e-12))


def _random_poly(rng):
    """Integer polynomial with known rational roots, some repeated, and
    optionally an irrational pair or a pair of complex roots.

    Returns the polynomial and its rational roots.
    """
    p = IntPolynomial((int(rng.choice([1, 1, 2, 3, 5])),))
    rational = []
    for _ in range(int(rng.integers(1, 5))):
        den = int(rng.choice([1, 2, 3, 5, 7, 12, 1024]))
        r = Fraction(int(rng.integers(-9 * den, 9 * den + 1)), den)
        rational.append(r)
        for _ in range(int(rng.choice([1, 1, 1, 2, 3]))):
            p = p * IntPolynomial((-r.numerator, r.denominator))
    kind = int(rng.integers(0, 3))
    if kind == 1:
        p = p * IntPolynomial((-int(rng.choice([2, 3, 5, 7, 13])), 0, 1))
    elif kind == 2:
        p = p * IntPolynomial((int(rng.integers(1, 6)), int(rng.integers(-1, 2)), 1))
    return p, rational


def _unseeded(fn, *args):
    """fn(*args) with every seed claim refused: roots from Sturm counts alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_root_cells", lambda *a: None)
        return fn(*args)


def _seeds(p):
    """The float roots of p from `numpy.roots`, ascending, or None unless all
    are real or where a coefficient is beyond float range: the seeds of a
    caller with no matrix at hand."""
    try:
        roots = np.roots([float(c) for c in reversed(p.coeffs)])
    except OverflowError:
        return None
    return None if np.iscomplexobj(roots) else sorted(roots.tolist())


def _seeded_roots(p, lo, hi, tol):
    """`sturm_real_roots` of p, seeded by `_seeds(p)`."""
    return sturm_real_roots_many([(p, lo, hi)], tol, [_seeds(p)])[0]


def _seeded_order(p, q, side):
    """`certify_root_order` of p and q, seeded by `_seeds`."""
    return certify_root_orders([(p, q)], side, {p: _seeds(p), q: _seeds(q)})[0]


def _grid(p, lo, hi, tol):
    """`_grid_roots` of p on [lo, hi] from its float seeds, as (a, b, multiplicity)."""
    found = _grid_roots(p, Fraction(lo), Fraction(hi), Fraction(tol), _seeds(p))
    return [(Fraction(l, s), Fraction(r, s), m) for l, r, s, m in found]


def _depth(lo, hi, tol) -> int:
    """The least depth whose cells of [lo, hi] are no wider than tol."""
    d = 0
    while Fraction(hi) - Fraction(lo) > Fraction(tol) * 2**d:
        d += 1
    return d


def test_grid_roots_equal_the_grid_reference():
    # cells, points and multiplicities, from seed claims and from Sturm
    # counts alone: on intervals that end exactly on a rational root, from
    # either side, on wide ones with non-dyadic ends, and on [-B, B] with
    # roots at its first midpoints 0 and +-B/2
    rng = np.random.default_rng(20201006)
    for _ in range(120):
        p, rational = _random_poly(rng)
        r = rational[int(rng.integers(0, len(rational)))]
        q = p * IntPolynomial((0, 1))
        bound = 2 * abs(r) or Fraction(2)
        for f, lo, hi in ((p, r, r + Fraction(7, 3)), (p, r - Fraction(5, 3), r),
                          (p, Fraction(-31, 3), Fraction(29, 3)), (q, -bound, bound)):
            for tol in WIDTHS:
                want = _reference_grid(f, lo, hi, tol)
                assert _grid(f, lo, hi, tol) == want, (f, lo, hi, tol)
                assert _unseeded(_grid, f, lo, hi, tol) == want, (f, lo, hi, tol)


def test_sturm_real_roots_equal_single_phase_reference():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p, rational = _random_poly(rng)
        r = float(rational[0])
        for lo, hi, tol in ((-10.0, 10.0, 1e-12), (r, r + 2.5, 2.0**-20), (-10.5, r, 2.0**-30)):
            if lo < hi:
                want = _reference_roots(p, lo, hi, tol)
                assert sturm_real_roots(p, lo, hi, tol) == want
                assert _seeded_roots(p, lo, hi, tol) == want


def test_roots_on_cell_ends_and_interval_ends():
    # x^2 (2^40 x + 1) on [-1, 1] at 1e-9: the simple root -2^-40 lies in the
    # depth-31 cell (-2^-30, 0), whose right end is the double root 0, so
    # neither its root count nor its multiplicity may count that end
    p = IntPolynomial((0, 0, 1, 2**40))
    want = [-(2.0**-31), 0.0, 0.0]
    assert sturm_real_roots(p, -1, 1, 1e-9) == want
    assert _seeded_roots(p, -1, 1, 1e-9) == want
    assert _reference_roots(p, -1, 1, 1e-9) == want
    # roots exactly at lo and at hi are those points, claimed by seeds or not
    q = IntPolynomial((-2, 0, 1)) * IntPolynomial((-3, 1)) * IntPolynomial((1, 1))
    for tol in (1e-12, 2.0**-20):
        got = sturm_real_roots(q, -1, 3, tol)
        assert got[0] == -1.0 and got[-1] == 3.0 and len(got) == 3
        assert got == _seeded_roots(q, -1, 3, tol) == _reference_roots(q, -1, 3, tol)
    # Psi_L'(12) = x^2 (x^3 - 14 x^2 - 92 x - 120) has the double root 0, the
    # first midpoint of [-36, 36]
    from cdspectra import quotients
    psi = quotients.Psi_Lprime(12)
    got = sturm_real_roots(psi, -36, 36, 1e-11)
    assert len(got) == 5 and got.count(0.0) == 2
    assert got == _reference_roots(psi, -36, 36, 1e-11)


def test_certify_root_order_equals_reference_and_retries_near_ties():
    sqrt2 = IntPolynomial((-2, 0, 1))
    below = IntPolynomial((-141421356, 10**8))          # 1.41421356 < sqrt(2)
    # the extreme roots agree to 2.4e-9, so they share a cell of width 2^-20
    # and the comparison is decided only at a finer width
    assert _grid(sqrt2, -4, 4, 2.0**-20)[-1] == _grid(below, -4, 4, 2.0**-20)[-1]
    assert certify_root_order(sqrt2, below, "max") == 1
    assert certify_root_order(below, sqrt2, "max") == -1
    # a shared extreme root after a near miss: 1/3 against 1/3 + 1e-8
    third = IntPolynomial((-1, 3)) * IntPolynomial((4, 0, 1))
    near = IntPolynomial((-(10**8 + 3), 3 * 10**8)) * IntPolynomial((-1, 3))
    assert certify_root_order(third, near, "max") == -1
    assert certify_root_order(third * IntPolynomial((1, 1)), third, "max") == 0
    rng = np.random.default_rng(99)
    for _ in range(40):
        p, _ = _random_poly(rng)
        q, _ = _random_poly(rng)
        if rng.integers(0, 2):
            q = q * IntPolynomial((-1, 3))          # often a shared root
        for side in ("min", "max"):
            try:
                want = _reference_order(p, q, side)
            except ValueError:
                with pytest.raises(ValueError):
                    certify_root_order(p, q, side)
                continue
            assert certify_root_order(p, q, side) == want
            assert _seeded_order(p, q, side) == want


def _seed_lists(seeds, lo, hi):
    """Wrong seed lists: moved, reordered, short, long, not finite, or on the ends."""
    return [[s + 1 for s in seeds], [s - 1e-3 for s in seeds], seeds[::-1], seeds[1:],
            seeds + seeds[:1], [math.nan] + seeds[1:], [math.inf] * len(seeds),
            [float(lo)] * len(seeds), [float(hi)] + seeds[1:]]


def test_seeded_refinement_equals_bisection():
    # every seed list, good or bad, gives bisection's own roots; the good
    # seeds of a square-free part with real roots alone mostly do so with no
    # Sturm chain
    rng = np.random.default_rng(20201019)
    tried = certified = 0
    for _ in range(100):
        p, rational = _random_poly(rng)
        p = _squarefree_chains(p)[0][0]
        seeds = _seeds(p)
        if seeds is None:
            continue
        r = rational[int(rng.integers(0, len(rational)))]
        for lo, hi in ((r, r + Fraction(7, 3)), (r - Fraction(5, 3), r),
                       (Fraction(-31, 3), Fraction(29, 3))):
            for tol in WIDTHS:
                want = _unseeded(_grid, p, lo, hi, tol)
                tried += 1
                certified += _root_cells(p, lo, hi, _depth(lo, hi, tol), seeds) is not None
                assert _grid(p, lo, hi, tol) == want, (p, lo, hi, tol)
                for bad in _seed_lists(seeds, lo, hi):
                    got = _grid_roots(p, lo, hi, Fraction(tol), bad)
                    assert [(Fraction(a, s), Fraction(b, s), m) for a, b, s, m in got] == want, bad
    assert tried > 100 and certified > 0.9 * tried


def test_seed_from_an_exact_root_on_the_left_end_equals_bisection():
    # on [r, 29/3] from a rational root r of a square-free part with real
    # roots alone, the seed of r claims the point lo and the root beside it
    # its own cell, and the roots are bisection's
    rng = np.random.default_rng(20161019)
    tried = certified = 0
    hi = Fraction(29, 3)
    for _ in range(150):
        p, rational = _random_poly(rng)
        p = _squarefree_chains(p)[0][0]
        seeds = _seeds(p)
        if seeds is None:
            continue
        for r in set(rational):
            for tol in WIDTHS:
                want = _unseeded(_grid, p, r, hi, tol)
                assert want[0][:2] == (r, r)
                tried += 1
                certified += _root_cells(p, r, hi, _depth(r, hi, tol), seeds) is not None
                assert _grid(p, r, hi, tol) == want
    assert tried > 100 and certified > 0.9 * tried


def _recording_claims(monkeypatch):
    """Patch `_root_cells` to record each polynomial whose seeds claim nothing."""
    claims, bisected = spectra._root_cells, []

    def recording(p, *args):
        found = claims(p, *args)
        if found is None:
            bisected.append(p)
        return found

    monkeypatch.setattr(spectra, "_root_cells", recording)
    return bisected


def test_no_bracket_from_an_exact_root_is_bisected_on_the_quotient_grid(monkeypatch):
    # Psi_L'(n) has the exact root 0, the first midpoint of [-B, B]: its seed
    # claims that grid point and the next seed its own cell, so of the
    # default grid's quotient polynomials only Psi_L'(12), whose root 0 is
    # double, is bisected by Sturm counts
    from cdspectra import quotients, verify
    bisected = _recording_claims(monkeypatch)
    assert verify.run_claim("quotient-consistency").status == "confirmed"
    assert bisected == [quotients.Psi_Lprime(12)]


def test_seeds_certify_the_exact_grid_polynomials(monkeypatch):
    # on the claims of the exact grid, the callers' seeds (the eigenvalues of
    # the matrices whose char polys are rooted) certify the roots of all 142
    # distinct polynomials but Psi_L'(12), whose double root 0 no seed claims
    from cdspectra import verify
    from cdspectra.quotients import Psi_Lprime
    certified, refused = set(), set()
    cells = spectra._root_cells

    def claiming(p, *args):
        assert args[-1] is not None
        out = cells(p, *args)
        (certified if out is not None else refused).add(p)
        return out

    monkeypatch.setattr(spectra, "_root_cells", claiming)
    for claim in ("quotient-consistency",) + verify.GRID_CLAIMS:
        verify.run_claim(claim)
    assert len(certified) == 142 and refused == {Psi_Lprime(12)}


def test_seeds_never_change_a_result_on_the_exact_grid(monkeypatch):
    # every polynomial the default exact grid roots, and every root order it
    # certifies: the caller's seeds, the seeds moved by one cell, and no
    # seeds give the same cells and the same orders
    from cdspectra import family_lemmas, verify
    grids, orders = [], []
    grid, certify = spectra._grid_roots, family_lemmas.certify_root_orders
    monkeypatch.setattr(spectra, "_grid_roots", lambda *args: grids.append(args) or grid(*args))
    monkeypatch.setattr(family_lemmas, "certify_root_orders",
                        lambda *args: orders.append(args) or certify(*args))
    for claim in ("quotient-consistency",) + verify.GRID_CLAIMS:
        verify.run_claim(claim)
    monkeypatch.undo()
    assert len({args[0] for args in grids}) == 143 and len(orders) == 1

    for p, lo, hi, tol, seeds in grids:
        # raw tuples: a point found by bisection is given on the seeds' grid
        assert seeds is not None
        width = float((Fraction(hi) - Fraction(lo)) / 2**_depth(lo, hi, tol))
        want = grid(p, lo, hi, tol, seeds)
        assert grid(p, lo, hi, tol, [s + width for s in seeds]) == want, p
        assert grid(p, lo, hi, tol, None) == want, p
    ((pairs, side, seeds),) = orders
    want = certify(pairs, side, seeds)
    assert certify(pairs, side, {p: [s + 2.0**-20 for s in r] for p, r in seeds.items()}) == want
    assert certify(pairs, side) == want


def test_a_repeated_root_costs_two_signs_before_the_sturm_walk(monkeypatch):
    # (3x + 4)^2 (3x^2 - 9): a seed of the double root -4/3 sees one sign at
    # both ends of its cell, and (x + 2)^3 (x - 1): the first seed of -2, a
    # grid point, claims it, and the next copy lands on a claimed point or a
    # cell beside it; either way a repeated root costs two signs
    calls = []
    sign = spectra._sign_at
    monkeypatch.setattr(spectra, "_sign_at", lambda *args: calls.append(args) or sign(*args))
    p = IntPolynomial((4, 3)) * IntPolynomial((4, 3)) * IntPolynomial((-9, 0, 3))
    assert p.coeffs == (-144, -216, -33, 72, 27)
    r, third = math.sqrt(3), -4 / 3
    two = IntPolynomial((2, 1))
    q = two * two * two * IntPolynomial((-1, 1))
    ulp = 2.0**-51
    for f, seeds, signs in ((p, [third, third, -r, r], 2), (p, [-r, third, third, r], 4),
                            (p, [-r, third - 2e-8, third + 2e-8, r], 4),
                            (q, [-2.0, -2.0, -2.0, 1.0], 2),
                            (q, [-2 - 2 * ulp, -2 + ulp, -2.0, 1.0], 2)):
        calls.clear()
        assert _root_cells(f, Fraction(-4), Fraction(4), 40, seeds) is None
        assert len(calls) == signs, (f, seeds)
    # Psi_L'(12) with the family store's eigenvalues of L'(12): the second
    # seed of the double root 0 ends the search
    from cdspectra import quotients, verify
    seeds = verify._family_spectra([("Lprime", (12,))])[0].quotient
    first = min(i for i, x in enumerate(seeds) if abs(x) < 1e-9)
    calls.clear()
    assert _root_cells(quotients.Psi_Lprime(12), Fraction(-36), Fraction(36), 40, seeds) is None
    assert len(calls) == 2 * (first + 1)


def test_float_seeds_and_cell_records_at_the_edges():
    # seeds are float roots, from an integer matrix or from numpy.roots,
    # whose cells exact signs then check; numpy.roots gives none where a
    # root is complex or a coefficient is beyond float range
    sqrt2 = IntPolynomial((-2, 0, 1))
    low, high = np.linalg.eigvalsh(np.array([[1, 1], [1, -1]], dtype=float)).tolist()
    assert abs(high - math.sqrt(2)) < 1e-15 and abs(low + math.sqrt(2)) < 1e-15
    assert _root_cells(sqrt2, Fraction(-4), Fraction(4), 30, [low, high]) is not None
    assert [_seeds(f) for f in (IntPolynomial((1, 0, 1)) * sqrt2, IntPolynomial((3,)),
                                IntPolynomial((1, 10**400)))] == [None, [], None]
    # (x + 10^200)(x^2 - 1) on [-2, 2], by Sturm counts alone
    wide = IntPolynomial((-10**200, -1, 10**200, 1))
    assert sturm_real_roots(wide, -2, 2, 1e-9) == [-1.0, 1.0]
    # a root on a grid point is claimed by its exact zero: x (3x - 1) on
    # [0, 1], where 0 is the left end
    p = IntPolynomial((0, -1, 3))
    cells = _root_cells(p, Fraction(0), Fraction(1), 30, _seeds(p))
    (i, j), (k, m) = cells
    assert i == j == 0 and m == k + 1 and k < 2**30 / 3 < m
    assert _seeded_roots(p, 0, 1, 2.0**-30) == sturm_real_roots(p, 0, 1, 2.0**-30)
    # whatever the seeds, exact signs give complex or repeated roots, two
    # seeds in one cell or a missing seed fewer than deg p claims
    r = math.sqrt(2)
    for p, seeds in ((IntPolynomial((1, 0, 1)) * sqrt2, [-r, 0.0, 0.0, r]),
                     (sqrt2 * sqrt2, [-r, -r, r, r]),
                     (sqrt2, [r, r]), (sqrt2, [r]), (sqrt2, None)):
        assert _root_cells(p, Fraction(-4), Fraction(4), 30, seeds) is None


def test_certify_root_order_seeded_equals_bisection_only_reference(monkeypatch):
    x = IntPolynomial((0, 1))
    sqrt2 = IntPolynomial((-2, 0, 1))
    huge = IntPolynomial((-1, 1)) * IntPolynomial((10**320, 1))      # roots 1 and -1e320
    on_grid = IntPolynomial((-3, 2**21)) * IntPolynomial((5, 0, 1))  # root 3 / 2^21
    pairs = [
        (sqrt2, IntPolynomial((-141421356, 10**8))),                # near tie
        (sqrt2 * IntPolynomial((1, 1)), sqrt2),                     # shared root
        (IntPolynomial((-1, 3)) * sqrt2, IntPolynomial((-1, 3))),   # shared rational root
        (on_grid, IntPolynomial((-3, 2**21)) * x),                  # rational roots on the grid
        (on_grid, IntPolynomial((-2, 2**20)) * (x - IntPolynomial((1,)))),
        (huge, IntPolynomial((-2, 1)) * IntPolynomial((1, 1))),      # beyond float range
        (huge, IntPolynomial((-1, 1)) * IntPolynomial((10**320 + 1, 1))),
    ]
    rng = np.random.default_rng(2016)
    for _ in range(30):
        pairs.append((_random_poly(rng)[0], _random_poly(rng)[0]))
    want = {}
    for p, q in pairs:
        for side in ("min", "max"):
            want[p, q, side] = _reference_order(p, q, side)
            assert certify_root_order(p, q, side) == want[p, q, side], (p, q, side)
    bisected = _recording_claims(monkeypatch)
    for p, q in pairs:
        for side in ("min", "max"):
            assert _seeded_order(p, q, side) == want[p, q, side], (p, q, side)
            assert _seeded_order(q, p, side) == -want[p, q, side], (p, q, side)
    # Sturm bisection runs exactly for the polynomials that no claims can
    # hold: coefficients beyond float range, or fewer than deg p distinct
    # real roots
    assert huge in bisected
    for p in {p for pair in pairs for p in pair}:
        bound = cauchy_root_bound(p)
        # cells no wider than 1 hold one distinct root each
        recordless = (_seeds(p) is None
                      or len(_reference_grid(p, -bound, bound, 1)) < p.degree)
        assert (p in bisected) == recordless, p


@pytest.mark.parametrize("offset", [-2.0**-22, 2.0**-22, 2.0**-19, -5.0, math.nan, math.inf])
def test_certify_root_order_with_a_perturbed_newton_seed_equals_reference(monkeypatch, offset):
    # every float seed is moved by offset: a seed still inside the cell next
    # to a root on the 2^-21 grid claims that point, and one beyond its cell
    # or not finite falls back to Sturm counts; no result changes
    def moved(p):
        seeds = _seeds(p)
        return None if seeds is None else [v + offset for v in seeds]

    x = IntPolynomial((0, 1))
    on_grid = IntPolynomial((-3, 2**21)) * IntPolynomial((5, 21, 2**21))
    sqrt2 = IntPolynomial((-2, 0, 1))
    pairs = [(on_grid, IntPolynomial((-3, 2**21)) * x), (on_grid, sqrt2),
             (sqrt2, IntPolynomial((-141421356, 10**8))), (sqrt2 * x, sqrt2)]
    for p, q in pairs:
        for side in ("min", "max"):
            got = certify_root_orders([(p, q)], side, {p: moved(p), q: moved(q)})
            assert got == [_reference_order(p, q, side)], (p, q, side)
        for tol in (2.0**-21, 1e-12):
            got = sturm_real_roots_many([(p, -4, 4)], tol, [moved(p)])
            assert got == [_reference_roots(p, -4, 4, tol)], (p, tol)
    p = IntPolynomial((-3, 2**21)) * x
    cells = _root_cells(p, Fraction(0), Fraction(1), 21, moved(p))
    if abs(offset) == 2.0**-22:
        assert cells == [(0, 0), (3, 3)]
    else:
        assert cells is None


def _positive_multiple(p, f):
    """Whether the integer polynomial p is a positive multiple of the rational f."""
    f = _ref_trim(list(f))
    if _ref_is_zero(f):
        return p.is_zero()
    c = p.coeffs
    return (len(c) == len(f) and c[-1] * f[-1] > 0
            and all(ci * f[-1] == fi * c[-1] for ci, fi in zip(c, f)))


def test_integer_remainder_sequences_are_positive_multiples_of_the_rational_ones():
    rng = np.random.default_rng(20201007)
    for _ in range(80):
        p, _ = _random_poly(rng)
        q, _ = _random_poly(rng)
        if rng.integers(0, 2):
            p = -p
        if rng.integers(0, 2):
            q = q * IntPolynomial((-1, 3))          # often a shared root
        fp, fq = _ref_frac(p), _ref_frac(q)
        ref = _ref_rational_chain(fp)
        chain = _sturm_chain(p)
        assert len(chain) == len(ref)
        assert all(_positive_multiple(c, r) for c, r in zip(chain, ref)), p
        # one chain per level of the gcd chain p, gcd(p, p'), ..., each of
        # its member's square-free part, ending where the gcd is constant
        g = fp
        for chain in _squarefree_chains(p):
            ref = _ref_rational_chain(_ref_squarefree(g))
            assert len(chain) == len(ref)
            assert all(_positive_multiple(c, r) for c, r in zip(chain, ref)), p
            g = _ref_gcd(g, _ref_deriv(g))
        assert len(g) == 1
        assert _positive_multiple(_gcd(p, p.derivative()), _ref_gcd(fp, _ref_deriv(fp)))
        for a, b in ((p, q), (p * q, q), (q, p * p)):
            g = _gcd(a, b)
            assert math.gcd(*g.coeffs) == 1 and g.coeffs[-1] > 0
            assert _positive_multiple(g, _ref_gcd(_ref_frac(a), _ref_frac(b)))
        # an exact division, by divisors of either sign, and a remainder
        for d in (q, -q, _gcd(p, p.derivative())):
            quo, rem = _pdivmod(p * q, d)
            assert rem.is_zero()
            assert _positive_multiple(quo, _ref_divide_exact(_ref_frac(p * q), _ref_frac(d)))
        quo, rem = _pdivmod(p, q)
        assert _positive_multiple(rem, _ref_rem(fp, fq))


@st.composite
def symmetric_int_matrices(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    m = np.zeros((n, n), dtype=int)
    m[np.triu_indices(n)] = draw(st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                                          max_size=n * (n + 1) // 2))
    return m + np.triu(m, 1).T


def _assert_exact_roots_match_lapack(m):
    poly = char_poly_exact(m)
    b = float(cauchy_root_bound(poly)) + 1
    roots = sturm_real_roots(poly, -b, b, 1e-12)
    vals = sorted(sym_eigenvalues(m).values.tolist())
    assert len(roots) == len(vals)
    assert np.allclose(roots, vals, rtol=0, atol=1e-9)


@settings(max_examples=25)
@given(diameter_gt3_graphs(max_n=16))
def test_exact_roots_of_distance_complement_match_lapack(g):
    # -1 and -2 eigenspaces give repeated roots, counted with multiplicity
    _assert_exact_roots_match_lapack(distance_matrix(complement(g)))


@settings(max_examples=40)
@given(symmetric_int_matrices())
def test_exact_roots_of_symmetric_integer_matrices_match_lapack(m):
    _assert_exact_roots_match_lapack(m)


def test_cell_records_isolate_like_sturm_chains_on_the_quotient_polynomials():
    # the 238 quotient polynomials of orders 7 to 40, on the [lo, hi] that
    # `quotient_reports` gives them: the seeds claim every root of all but
    # Psi_L'(12), which has the double root 0, and the roots read off the
    # claims are those of Sturm counts alone
    from cdspectra import family_lemmas, quotients, verify
    cases = family_lemmas._quotient_cases(range(7, 41))
    solved = verify._family_spectra(quotients.model_graph_key(*case) for case in cases)
    problems = [(r.derived_poly, -len(s.values) * int(s.dist.max()),
                 len(s.values) * int(s.dist.max()))
                for r, s in zip(quotients.quotient_reports(cases), solved)]
    assert len(problems) == 238
    seeds = [s.quotient for s in solved]
    recordless = [p for (p, lo, hi), s in zip(problems, seeds)
                  if _root_cells(p, Fraction(lo), Fraction(hi), _depth(lo, hi, 1e-11), s) is None]
    assert recordless == [quotients.Psi_Lprime(12)]
    roots = sturm_real_roots_many(problems, 1e-11, seeds)
    assert sturm_real_roots_many(problems, 1e-11) == roots


@st.composite
def chosen_root_polynomials(draw):
    """An integer polynomial with chosen rational roots, the bound B of the
    interval [-B, B] it is isolated on, its distinct roots, and its kind:
    simple real roots only, or a repeated or a complex pair added."""
    half = draw(st.sampled_from([1, 3, 8]))
    roots = draw(st.lists(st.one_of(
        # 0 and +-B/2, the first midpoints of [-B, B]
        st.sampled_from([Fraction(0), Fraction(half), Fraction(-half)]),
        # inside [-B, B], on the bisection grid or off it, and beyond it
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 3, 7, 16, 1024])),
        st.builds(Fraction, st.integers(-10**3, 10**3), st.sampled_from([1, 9])),
    ), min_size=1, max_size=5, unique=True))
    p = IntPolynomial((draw(st.sampled_from([1, -2, 3])),))
    for r in roots:
        p = p * IntPolynomial((-r.numerator, r.denominator))
    kind = draw(st.sampled_from(["simple", "repeated", "complex"]))
    if kind == "repeated":
        r = draw(st.sampled_from(roots))
        p = p * IntPolynomial((-r.numerator, r.denominator))
    elif kind == "complex":
        p = p * IntPolynomial((draw(st.integers(1, 5)), draw(st.integers(-1, 1)), 1))
    return p, 2 * half, roots, kind


@settings(max_examples=60)
@given(chosen_root_polynomials())
def test_cell_records_isolate_like_sturm_chains_on_chosen_roots(case):
    # on [-B, B], with roots at its first midpoints, on the grid, off it and
    # beyond it: the seeds claim every root on the depth-30 grid just when
    # all are real and simple, and the roots equal Sturm counts' and the
    # reference's
    p, bound, roots, kind = case
    lo, hi, tol = Fraction(-bound), Fraction(bound), Fraction(bound, 2**29)
    claims = _root_cells(p, lo, hi, 30, _seeds(p))
    assert (claims is not None) == (kind == "simple")
    want = _reference_grid(p, lo, hi, tol)
    assert _grid(p, lo, hi, tol) == _unseeded(_grid, p, lo, hi, tol) == want


def test_certify_root_orders_equal_pairwise_orders_on_the_lemma_3_11_grid(monkeypatch):
    # the 492 root orders of Lemma 3.11's grid up to p = 32, as one batch,
    # pair by pair, and by Sturm isolation alone
    from cdspectra import quotients
    pairs = [(quotients.Phi_L(p, q), quotients.Psi_Lprime(p + q))
             for p in range(4, 33) for q in range(2, p + 1) if p + q >= 7]
    assert len(pairs) == 492
    orders = certify_root_orders(pairs, "min")
    assert orders == [certify_root_order(p, q, "min") for p, q in pairs]
    assert orders.count(-1) == 424 and orders.count(0) == 0
    monkeypatch.setattr(spectra, "_root_cells", lambda *args: None)
    assert certify_root_orders(pairs, "min") == orders


@st.composite
def real_rooted_problems(draw):
    """A real-rooted integer polynomial with an interval [lo, hi] of floats
    and a width: rational roots on dyadic grids and off them, close pairs,
    irrational pairs +-sqrt(c), and ends that are roots or lie between them."""
    roots = draw(st.lists(st.one_of(
        st.builds(Fraction, st.integers(-64, 64), st.sampled_from([1, 2, 4, 1024, 2**20])),
        st.builds(Fraction, st.integers(-10**3, 10**3), st.sampled_from([3, 7, 9, 1000003])),
    ), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        # a pair closer than some of the widths below
        roots.append(roots[0] + Fraction(1, draw(st.sampled_from([10**6, 10**9, 10**13, 2**40]))))
    p = IntPolynomial((draw(st.sampled_from([1, -2, 3])),))
    for r in roots:
        p = p * IntPolynomial((-r.numerator, r.denominator))
    for c in draw(st.lists(st.sampled_from([2, 3, 5, 7, 50]), max_size=2, unique=True)):
        p = p * IntPolynomial((-c, 0, 1))
    lo, hi = sorted(draw(st.lists(st.floats(-1100.0, 1100.0, allow_nan=False),
                                  min_size=2, max_size=2, unique=True)))
    if draw(st.integers(0, 3)) == 0:
        # one end on a root, which is exact when the root is a float
        r = float(draw(st.sampled_from(roots)))
        lo, hi = (r, max(hi, r + 1)) if draw(st.booleans()) else (min(lo, r - 1), r)
    return p, lo, hi, draw(st.sampled_from([1e-12, 1e-9, 2.0**-30, 1e-3]))


@settings(max_examples=150)
@given(real_rooted_problems())
def test_sturm_real_roots_equal_the_grid_reference_on_real_rooted_problems(case):
    # from the seeds' claims and from Sturm counts alone, bitwise the
    # reference's midpoints; a root on lo or hi is that end itself
    p, lo, hi, tol = case
    want = _reference_roots(p, lo, hi, tol)
    assert sturm_real_roots(p, lo, hi, tol) == want
    assert _seeded_roots(p, lo, hi, tol) == want
    for end in (lo, hi):
        if p(Fraction(end)) == 0:
            assert end in want


def test_final_cell_roots_on_the_quotient_grid():
    # 97 of the default grid's 98 quotient polynomials are read off the
    # claims of their final-depth cells, every other Psi_L' with its root 0
    # claimed as the middle grid point; only Psi_L'(12), whose root 0 is
    # double, is not
    from cdspectra import family_lemmas, quotients, verify
    cases = family_lemmas._quotient_cases(range(7, 21))
    solved = verify._family_spectra(quotients.model_graph_key(*case) for case in cases)
    polys = [r.derived_poly for r in quotients.quotient_reports(cases)]
    read = []
    for (family, _), p, s in zip(cases, polys, solved):
        bound = Fraction(len(s.values) * int(s.dist.max()))
        depth = _depth(-bound, bound, 1e-11)
        claims = _root_cells(p, -bound, bound, depth, s.quotient)
        read.append(claims is not None)
        if family == "Lprime" and claims is not None:
            assert (2**(depth - 1), 2**(depth - 1)) in claims
    assert len(read) == 98 and sum(read) == 97
