"""Odometer-semigroup representations on truncated vector-valued Fock spaces.

Construction of odometer maps from symbols, classification (isometric, Nica
covariant, unitary), Poisson-kernel dilation and odometer lifting of
contractive pairs, Beurling-Lax factorization of invariant subspaces, a
gallery of named examples, and bit-exact JSON wire formats with a CLI.
"""

from .beurling import (
    BeurlingFactorization,
    InducedSymbolResult,
    InvariantSubspace,
    beurling_factorize,
    induced_symbol,
    invariant_subspace,
    levels_subspace,
    wandering_subspace,
)
from .classify import (
    ClassificationReport,
    IsometryCheck,
    NicaCheck,
    UnitaryCheck,
    check_isometric,
    check_nica,
    check_unitary,
    classify,
    compute_E_L,
    level0_block,
    off_vacuum_residual,
    surjectivity_defect,
)
from .config import MAX_DENSE_DIM, default_tol
from .dilation import (
    ContractivePair,
    DilationData,
    LiftResult,
    PairCheck,
    PurityResult,
    RowContraction,
    compress_pair,
    defect_root,
    intertwining_residuals,
    odometer_lift,
    poisson_kernel,
    purity_test,
    row_contraction,
    verify_pair,
)
from .errors import (
    CertificateError,
    DilationInexactError,
    DimensionLimitError,
    InvarianceError,
    LevelOverflowError,
    NotIsometricError,
    OdofockError,
    SchemaError,
    WindowError,
)
from .fock import (
    Operator,
    TruncatedFockSpace,
    creation_basis_map,
    creation_operator,
    creation_word_map,
)
from .gallery import (
    GalleryEntry,
    GoldenRatioSequence,
    LevelSpectrum,
    SpectrumReport,
    angle_histogram,
    gallery_adding_machine,
    gallery_golden_ratio,
    gallery_shift_symbol,
    gallery_weak_bishift,
    golden_ratio_coeffs,
    spectrum_per_level,
)
from .linalg import (
    hausdorff_distance,
    max_angular_gap,
    op_norm,
    orthonormal_columns,
    orthonormal_complement,
)
from .odometer import (
    NormBounds,
    OdometerMap,
    RepresentationCheck,
    Symbol,
    adjoint_isometric,
    build_odometer,
    constant_symbol,
    e1_coefficient_tensor,
    gram_sums,
    norm_bounds,
    scalar_symbol,
    symbol_from_dense,
    symbol_from_entries,
    verify_fock_representation,
)
from .words import (
    Overflow,
    Word,
    carry_successor,
    enumerate_words,
    vacuum,
    word_from_position,
    words_at_level,
)

__version__ = "0.1.0"
