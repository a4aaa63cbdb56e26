"""Quotient (divisor) matrices of the family complements and their polynomials.

Each extremal family's complement has an equitable partition, the cells
of the family's pattern in `families.FAMILIES` taken in the printed
matrix's order; the small integer matrix of class-wise distance row sums
(`families.cell_quotient`) has a characteristic polynomial whose roots
are eigenvalues of D(X^c).  Three artifacts are cross-checked:

  * the quotient matrix derived from the family's pattern (ground truth),
    and its exact char poly,
  * the closed-form matrix printed for it, where one exists,
  * the closed-form characteristic polynomial printed for it.

`quotient_consistency` compares them and checks the derived roots
against the full spectrum of D(X^c); `quotient_reports` does so for many
cases at once.  The cells, and the float seeds of the roots, come from
the family store (`verify._family_spectra`), but the full spectrum is
solved at order n apart from it, so the check does not lean on the
quotient it checks.  Printed-formula
mismatches are reported, never silently patched: the derived objects win.
"""

from fractions import Fraction

import numpy as np

from cdspectra.families import cell_quotient, family_stacks
from cdspectra.spectra import (
    IntPolynomial,
    cauchy_root_bound,
    char_polys_exact,
    sturm_real_roots_many,
)
from cdspectra.verify import _family_spectra, _family_spectrum, complement_distances

class UnsupportedFamily(ValueError):
    """No quotient model is defined for this family."""


# --- partitions (the family table's cells, in printed order) ---------------

# The cells of each model graph's row in `families.FAMILIES`, in the order
# the printed matrix lists its classes; none is empty.
_PRINTED_CELLS = {
    "H": (2, 0, 1, 3),              # u, A, B, v
    "B1": (0, 2, 1, 3),             # u, v, U', V'
    "B2": (0, 3, 1, 2, 4),          # u, v, w, U'', V'
    "T": (0, 1, 2, 3),              # the two centres, then their pendants
    "L": (1, 3, 0, 2, 4),           # u, v, w, P', Q'
    "Lprime": (1, 4, 0, 3, 2),      # u, v, w, w', R
    "Ldprime": (0, 1, 3, 4, 2),     # w', u', n-2, n-1, R
}
# The parameters each quotient model takes: the T model takes its order.
QUOTIENT_PARAMS = {
    "H": ("s", "t"), "B1": ("p", "q"), "B2": ("p", "q"), "T": ("n",),
    "L": ("p", "q"), "Lprime": ("n",), "Ldprime": ("n",),
}


def model_graph_key(family_id: str, params) -> tuple[str, tuple[int, ...]]:
    """The (family, params) of the graph a quotient model covers: the T
    model of order n covers the double star T(n-3, 1)."""
    params = tuple(int(p) for p in params)
    if family_id == "T":
        (n,) = params
        return "T", (n - 3, 1)
    return family_id, params


def printed_quotient_matrix(family_id: str, params) -> np.ndarray | None:
    """The divisor matrix exactly as printed, or None where none is printed."""
    params = tuple(int(p) for p in params)
    if family_id == "H":
        s, t = params
        return np.array([
            [0, 2 * s, t, 1],
            [2, 2 * (s - 1), 3 * t, 1],
            [1, 3 * s, 2 * (t - 1), 2],
            [1, s, 2 * t, 0],
        ])
    if family_id == "B2":
        p, q = params
        return np.array([
            [0, 1, 1, p - 2, 2 * (q - 1)],
            [1, 0, 2, 2 * (p - 2), q - 1],
            [1, 2, 0, p - 2, q - 1],
            [1, 2, 1, p - 3, 2 * (q - 1)],
            [2, 1, 1, 2 * (p - 2), q - 2],
        ])
    if family_id == "T":
        (n,) = params
        return np.array([
            [0, 3, 2 * (n - 3), 1],
            [3, 0, n - 3, 2],
            [2, 1, n - 4, 1],
            [1, 2, n - 3, 0],
        ])
    if family_id == "L":
        p, q = params
        return np.array([
            [0, 2, 1, 2 * (p - 2), q - 1],
            [2, 0, 1, p - 2, 2 * (q - 1)],
            [1, 1, 0, 2 * (p - 2), q - 1],
            [2, 1, 2, 2 * (p - 3), q - 1],
            [1, 2, 1, p - 2, 2 * (q - 2)],
        ])
    if family_id == "Lprime":
        # printed with parameter p; matching the derived char poly to the
        # full spectrum fixes p := n
        (n,) = params
        p = n
        return np.array([
            [0, 2, 1, 1, 2 * (p - 4)],
            [2, 0, 1, 1, p - 4],
            [1, 1, 0, 2, 2 * (p - 4)],
            [1, 1, 2, 0, p - 4],
            [2, 1, 2, 1, 2 * (p - 5)],
        ])
    if family_id in ("B1", "Ldprime"):
        return None
    raise UnsupportedFamily(f"no quotient model for family {family_id!r}")


# --- printed characteristic polynomials --------------------------------------
#
# Each printed polynomial is written once, literally, in an unguarded private
# function that returns its coefficients, ascending, for ints and int64 arrays
# alike: the difference identities evaluate them at any grid point, even where
# no graph of the family exists.  The public functions guard the domain.


def _phi_H(s, t) -> tuple:
    return (
        -4 * s - 4 * t - 4,
        -12 * s - 12 * t - 4 * s * t - 4,
        -9 * s - 9 * t - 5 * s * t + 3,
        -2 * s - 2 * t + 4,
        1,
    )


def phi_H(s: int, t: int) -> IntPolynomial:
    """Quartic for the H(s,t) complement quotient, as printed."""
    if s < 1 or t < 1:
        raise ValueError("phi_H needs s, t >= 1")
    return IntPolynomial(_phi_H(s, t))


def _phi_B1(p, q) -> tuple:
    return (
        -5 * p * q + 2 * p + 2 * q,
        -14 * p * q + 6 * p + 6 * q,
        -8 * p * q + 2 * p + 2 * q + 4,
        -q + 4 - p,
        1,
    )


def phi_B1(p: int, q: int) -> IntPolynomial:
    """Quartic for the B1(p,q) complement quotient, as printed."""
    if p < 2 or q < 2:
        raise ValueError("phi_B1 needs p, q >= 2")
    return IntPolynomial(_phi_B1(p, q))


def _varphi_B2(p, q) -> tuple:
    return (
        3 * p * q - 6 * p - 2 * q + 4,
        -(p * q + 10 * p - 8),
        -(8 * p * q + 6 * p - 4 * q - 8),
        -(3 * p * q + 4 * p + q - 10),
        -(q - 5 + p),
        1,
    )


def varphi_B2(p: int, q: int) -> IntPolynomial:
    """Quintic for the B2(p,q) complement quotient, as printed."""
    if p < 3 or q < 2:
        raise ValueError("varphi_B2 needs p >= 3, q >= 2")
    return IntPolynomial(_varphi_B2(p, q))


def _psi_T(n) -> tuple:
    return (-12, -6 * n - 8, 4 - 6 * n, -n + 4, 1)


def psi_T(n: int) -> IntPolynomial:
    """Quartic for the T(n-3,1) complement quotient, as printed."""
    if n < 5:
        raise ValueError("psi_T needs n >= 5")
    return IntPolynomial(_psi_T(n))


def _Psi_Lprime(n) -> tuple:
    return (0, 4 * n - 48, -10 * n, 28 - 10 * n, 10 - 2 * n, 1)


def Psi_Lprime(n: int) -> IntPolynomial:
    """Quintic for the L'(n) complement quotient, as printed (zero constant term)."""
    if n < 7:
        raise ValueError("Psi_Lprime needs n >= 7")
    return IntPolynomial(_Psi_Lprime(n))


def _Psi2_Ldprime(n) -> tuple:
    return (14 * n - 70, 15 * n - 103, -10 - 8 * n, 28 - 10 * n, 10 - 2 * n, 1)


def Psi2_Ldprime(n: int) -> IntPolynomial:
    """Quintic for the L''(n) complement quotient, as printed."""
    if n < 7:
        raise ValueError("Psi2_Ldprime needs n >= 7")
    return IntPolynomial(_Psi2_Ldprime(n))


def _Phi_L(p, q) -> tuple:
    return (
        12 * p * q - 10 * p - 22 * q + 2,
        30 * p * q - 45 * p - 63 * q + 53,
        18 * p * q - 44 * p - 50 * q + 74,
        3 * p * q - 16 * p - 16 * q + 40,
        10 - 2 * q - 2 * p,
        1,
    )


def Phi_L(p: int, q: int) -> IntPolynomial:
    """Quintic for the L(p,q) complement quotient, as printed."""
    if p < 4 or q < 2:
        raise ValueError("Phi_L needs p >= 4, q >= 2")
    return IntPolynomial(_Phi_L(p, q))


def printed_poly(family_id: str, params) -> IntPolynomial:
    params = tuple(int(p) for p in params)
    fn = {
        "H": phi_H, "B1": phi_B1, "B2": varphi_B2, "T": psi_T,
        "L": Phi_L, "Lprime": Psi_Lprime, "Ldprime": Psi2_Ldprime,
    }.get(family_id)
    if fn is None:
        raise UnsupportedFamily(f"no printed polynomial for family {family_id!r}")
    return fn(*params)


# --- the paper's difference identities, checked exactly ----------------------


class IdentityCheck:
    """Exact comparison of a printed difference identity at one grid point,
    or at each point of parameter columns (`matches` an array)."""

    __slots__ = ("claim", "params", "matches", "residual")

    def __init__(self, claim: str, params: tuple[int, ...], matches: bool,
                 residual: tuple[int, ...]):
        self.claim = claim
        self.params = params
        self.matches = matches
        self.residual = residual    # derived difference minus printed, ascending

    @property
    def derived_minus_printed(self) -> IntPolynomial:
        return IntPolynomial(self.residual)


def _minus(a: tuple, b: tuple) -> tuple:
    """a - b, coefficients ascending."""
    n = max(len(a), len(b))
    return tuple(x - y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))


def _identity(claim, params, derived: tuple, printed: tuple) -> IdentityCheck:
    resid = _minus(derived, printed)
    if isinstance(params[0], np.ndarray):
        zero = np.broadcast_arrays(params[0], *(np.equal(c, 0) for c in resid))[1:]
        return IdentityCheck(claim, params, np.all(zero, axis=0), resid)
    poly = IntPolynomial(resid)
    return IdentityCheck(claim, tuple(params), poly.is_zero(), poly.coeffs)


def identities_hold(check, points) -> np.ndarray:
    """`check(*params).matches` at every parameter point at once: on int64
    columns, exact below 2^20 as no coefficient is above quadratic, else ints."""
    points = list(points)
    if not points:
        return np.zeros(0, dtype=bool)
    cols = np.array(points).reshape(len(points), -1)
    if cols.dtype == object or np.abs(cols).max(initial=0) >= 1 << 20:
        cols = cols.astype(object)
    return check(*cols.T).matches


def check_identity_H_step(s: int, t: int) -> IdentityCheck:
    """phi_{s,t} - phi_{s-1,t+1} = lambda (s-t-1) (5 lambda + 4)."""
    printed = (0, 4 * (s - t - 1), 5 * (s - t - 1))
    return _identity("L2.3-step", (s, t), _minus(_phi_H(s, t), _phi_H(s - 1, t + 1)), printed)


def check_identity_B2_vs_B1(p: int, q: int) -> IdentityCheck:
    """varphi - (lambda+1) phi equals the printed cubic (the paper's first form)."""
    printed = (
        8 * p * q - 8 * p - 4 * q + 4,
        18 * p * q - 18 * p - 8 * q + 8,
        14 * p * q - 14 * p - 4 * q + 4,
        5 * p * q - 5 * p - 2 * q + 2,
    )
    phi = _phi_B1(p, q)
    lam1_phi = tuple(a + b for a, b in zip((0,) + phi, phi + (0,)))     # (lambda + 1) phi
    return _identity("L3.4-diff", (p, q), _minus(_varphi_B2(p, q), lam1_phi), printed)


def check_identity_B1_vs_T(p: int, q: int) -> IdentityCheck:
    """phi_{p,q} - psi at n = p+q, as printed in Lemma 3.5."""
    printed = (
        -5 * p * q + 2 * p + 2 * q + 12,
        -14 * p * q + 12 * p + 12 * q + 8,
        -8 * p * q + 8 * p + 8 * q,
    )
    return _identity("L3.5-diff", (p, q), _minus(_phi_B1(p, q), _psi_T(p + q)), printed)


def check_identity_B1_step(p: int, q: int) -> IdentityCheck:
    """phi_{p,q} - phi_{p-1,q+1}, as printed in Lemma 3.6."""
    printed = (
        5 * p - 5 * q - 5,
        14 * p - 14 * q - 14,
        8 * p - 8 * q - 8,
    )
    return _identity("L3.6-diff", (p, q), _minus(_phi_B1(p, q), _phi_B1(p - 1, q + 1)), printed)


def check_identity_Lprime_vs_Ldprime(n: int) -> IdentityCheck:
    """Psi - Psi', as printed in Lemma 3.9."""
    printed = (-14 * n + 70, -11 * n + 55, -2 * n + 10)
    return _identity("L3.9-diff", (n,), _minus(_Psi_Lprime(n), _Psi2_Ldprime(n)), printed)


def check_identity_L_vs_Lprime(p: int, q: int) -> IdentityCheck:
    """Phi_{p,q} - Psi at n = p+q, as printed in Lemma 3.11.

    Exact computation shows the printed quadratic only matches at q = 2;
    the residual carries the derived correction.
    """
    printed = (14 * p - 42, 11 * p - 33, 2 * p - 6)
    return _identity("L3.11-diff", (p, q), _minus(_Phi_L(p, q), _Psi_Lprime(p + q)), printed)


def check_identity_L_step(p: int, q: int) -> IdentityCheck:
    """Phi_{p,q} - Phi_{p-1,q+1}, as printed in Lemma 3.12.

    Exact computation shows the printed cubic never matches Eq. (5); the
    residual carries the derived difference.
    """
    printed = (
        12 * p * q - 10 * p - 22 * q + 2,
        30 * p * q - 49 * p - 67 * q + 101,
        18 * p * q - 34 * p - 40 * q + 74,
        3 * p * q - 6 * p - 6 * q + 12,
    )
    return _identity("L3.12-diff", (p, q), _minus(_Phi_L(p, q), _Phi_L(p - 1, q + 1)), printed)


def power_discrepancy_verdict(p: int, q: int, samples: int = 6) -> dict:
    """Measured verdict on the (lambda+1) power inconsistency in Lemma 3.4.

    The same difference is written once as varphi - (lambda+1) phi and once
    as varphi - (lambda+1)^2 phi with a positivity claim for lambda < -3.
    Exact sign sampling decides which power behaves as claimed on the
    operative range [least root of varphi, -3), whose end is found from the
    family store's eigenvalues of B2(p, q) as seeds.
    """
    lam1 = IntPolynomial((1, 1))
    d1 = varphi_B2(p, q) - lam1 * phi_B1(p, q)
    d2 = varphi_B2(p, q) - lam1 * lam1 * phi_B1(p, q)
    bound = cauchy_root_bound(varphi_B2(p, q))
    least = sturm_real_roots_many([(varphi_B2(p, q), float(-bound), float(bound))], 1e-12,
                                  [_family_spectrum("B2", (p, q)).quotient])[0][0]
    pts = []
    for k in range(samples):
        x = Fraction(least + (-3 - least) * k / samples).limit_denominator(10**9)
        if x < -3:
            pts.append(x)
    pow1_pos = all(d1(x) > 0 for x in pts)
    pow2_pos = all(d2(x) > 0 for x in pts)
    deep = Fraction(-10**6)
    return {
        "printed_cubic_is_power1": check_identity_B2_vs_B1(p, q).matches,
        "power1_positive_on_operative_range": pow1_pos,
        "power2_positive_on_operative_range": pow2_pos,
        "power2_positive_at_minus_1e6": bool(d2(deep) > 0),
        "consistent_power": 2 if (pow2_pos and not pow1_pos) else (1 if pow1_pos else 0),
    }


# --- consistency against the full spectrum -----------------------------------


class QuotientReport:
    """quotient_consistency outcome; failures are content, not exceptions."""

    __slots__ = ("family_id", "params", "order", "derived_matrix", "printed_matrix",
                 "matrix_matches", "derived_poly", "printed_poly", "poly_matches",
                 "coeff_diff", "quotient_roots", "roots_matched", "unmatched_roots",
                 "lambda1_is_root", "lambda_n_is_root", "lambda1", "lambda_n")

    def __init__(self, **fields):
        # every field by keyword, as `_report` gives them
        for name in self.__slots__:
            setattr(self, name, fields[name])

    def ok(self) -> bool:
        return self.roots_matched and self.lambda1_is_root

    def summary(self) -> dict:
        return {
            "family": self.family_id,
            "params": list(self.params),
            "order": self.order,
            "matrix_matches_printed": self.matrix_matches,
            "poly_matches_printed": self.poly_matches,
            "coeff_diff_derived_minus_printed": list(self.coeff_diff),
            "quotient_roots": self.quotient_roots,
            "roots_in_full_spectrum": self.roots_matched,
            "lambda1_is_quotient_root": self.lambda1_is_root,
            "lambda_n_is_quotient_root": self.lambda_n_is_root,
            "lambda1": self.lambda1,
            "lambda_n": self.lambda_n,
        }


def quotient_consistency(family_id: str, params, tol: float = 1e-9) -> QuotientReport:
    """Compare derived/printed quotient artifacts and the full spectrum:
    `quotient_reports` of the one case."""
    return quotient_reports([(family_id, params)], tol)[0]


def quotient_reports(cases, tol: float = 1e-9) -> list[QuotientReport]:
    """`quotient_consistency` of each (family_id, params) case, as one batch.

    Each case's model graph is read from the family store
    (`verify._family_spectra`): its quotient matrix is the `cell_quotient`
    of the stored cells in printed order, and the characteristic
    polynomials come from one `char_polys_exact` call per matrix size.
    Each quotient polynomial's roots are then found exactly, all in one
    `sturm_real_roots_many` batch: each root is the midpoint of its cell on
    the bisection grid of [-B, B], with B = n times the largest distance,
    which bounds every eigenvalue.  The cell is read off the claim of a
    seed, a stored eigenvalue of the symmetric M similar to the quotient,
    or found by Sturm counts.  The roots are then matched against the full
    spectrum, which one `family_stacks` call and a values-only `eigvalsh`
    per order give, apart from the family store.
    """
    cases = [(family_id, tuple(int(p) for p in params)) for family_id, params in cases]
    for family_id, _ in cases:
        if family_id not in _PRINTED_CELLS:
            raise UnsupportedFamily(f"no quotient partition for family {family_id!r}")
    keys = [model_graph_key(*case) for case in cases]
    solved = _family_spectra(keys)
    orders = [_PRINTED_CELLS[family_id] for family_id, _ in cases]
    matrices = [cell_quotient(f.sizes, f.dist)[np.ix_(o, o)] for f, o in zip(solved, orders)]
    # any eigenvalue is bounded by the max row sum <= n * max distance; the
    # complements here have diameter up to 3, so 2n would clip lambda_1
    bounds = [sum(f.sizes) * int(f.dist.max()) for f in solved]
    spectra: list = [None] * len(cases)
    for ats, adj in family_stacks(keys).values():
        for at, values in zip(ats, np.linalg.eigvalsh(complement_distances(adj))):
            spectra[at] = values[::-1]
    derived: dict[int, IntPolynomial] = {}
    for size in {len(qm) for qm in matrices}:
        index = [i for i, qm in enumerate(matrices) if len(qm) == size]
        derived.update(zip(index, char_polys_exact([matrices[i] for i in index])))
    roots = sturm_real_roots_many(
        [(derived[i], -b, b) for i, b in enumerate(bounds)], min(tol, 1e-10) / 10,
        [f.quotient for f in solved])
    return [_report(*case, values, qm, derived[i], roots[i], tol)
            for i, (case, values, qm) in enumerate(zip(cases, spectra, matrices))]


def _report(family_id: str, params: tuple[int, ...], spectrum: np.ndarray, qm: np.ndarray,
            derived: IntPolynomial, roots: list[float], tol: float) -> QuotientReport:
    pm = printed_quotient_matrix(family_id, params)
    printed = printed_poly(family_id, params)
    gaps = np.abs(np.subtract.outer(roots, spectrum))     # root by eigenvalue
    unmatched = [r for r, gap in zip(roots, gaps.min(axis=1).tolist()) if gap > tol]
    return QuotientReport(
        family_id=family_id,
        params=params,
        order=len(spectrum),
        derived_matrix=qm,
        printed_matrix=pm,
        matrix_matches=None if pm is None else bool(np.array_equal(qm, pm)),
        derived_poly=derived,
        printed_poly=printed,
        poly_matches=derived.coeffs == printed.coeffs,
        coeff_diff=(derived - printed).coeffs,
        quotient_roots=roots,
        roots_matched=not unmatched,
        unmatched_roots=unmatched,
        lambda1_is_root=bool(gaps[:, 0].min() <= tol),
        lambda_n_is_root=bool(gaps[:, -1].min() <= tol),
        lambda1=float(spectrum[0]),
        lambda_n=float(spectrum[-1]),
    )
