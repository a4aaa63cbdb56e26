"""Distance spectra of graph complements.

Tooling for the extremal question: among connected graphs of diameter
greater than three, which complements extremize the distance spectral
radius and the least distance eigenvalue?  The package provides bitset
graphs with graph6 I/O, a dense symmetric eigensolver with exact
characteristic-polynomial cross-checks, constructors for the extremal
families (H, T, T1, T2, B1, B2, L, L', L''), their quotient matrices and
closed-form polynomials, and an exhaustive verification harness.
"""

from cdspectra.graphcore import (
    DisconnectedGraph,
    Graph,
    Graph6Error,
    TooLarge,
    adjacency_matrix,
    complement,
    diameter,
    distance_matrices,
    distance_matrix,
    from_graph6,
    is_connected,
    is_isomorphic,
    to_graph6,
)
from cdspectra.spectra import (
    IntPolynomial,
    Spectrum,
    char_poly_exact,
    char_polys_exact,
    sturm_real_roots,
    sym_eigenvalues,
)

__all__ = [
    "DisconnectedGraph",
    "Graph",
    "Graph6Error",
    "IntPolynomial",
    "Spectrum",
    "TooLarge",
    "adjacency_matrix",
    "char_poly_exact",
    "char_polys_exact",
    "complement",
    "diameter",
    "distance_matrices",
    "distance_matrix",
    "from_graph6",
    "is_connected",
    "is_isomorphic",
    "sturm_real_roots",
    "sym_eigenvalues",
    "to_graph6",
]
