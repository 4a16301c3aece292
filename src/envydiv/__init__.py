"""Envy-free division of the unit-interval cake on chessboard-style
configuration spaces, with preferences that may favor degenerate pieces."""

from .complexes import (
    HomologyReport,
    SimplicialComplex,
    Variant,
    build_complex,
    chessboard,
    for_space,
    gorbushka_join,
    is_face,
    is_pseudomanifold,
    join_power,
    reduced_homology,
)
from .configspace import (
    ConfigPoint,
    Cut,
    ZPoint,
    act,
    canonicalize,
    cut_to_z,
    degenerate_and_essential,
    partition_equivalent,
    point_from_barycentric,
    z_to_cut,
)
from .preferences import (
    PreferenceMatrix,
    ValidationReport,
    load_preference_file,
    make_builtin,
    score_matrix,
    scores,
    validate,
)
from .reductions import eliminate_superfluous, phi, psi
from .solver import (
    BirkhoffDecomposition,
    EnvyFreeDivision,
    SearchOptions,
    StochasticMatrix,
    average_matrix,
    birkhoff,
    brute_force,
    extract_assignment,
    search,
    solve,
    verify_division,
)

__version__ = "0.1.0"
