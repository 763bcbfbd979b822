"""Exact-arithmetic laboratory for interval-exchange words and repetitions."""

from .exactreal import CFExpansion, QuadraticReal, cf_expand, parse_quadratic
from .errors import (
    BlockParseError,
    FieldMismatchError,
    InsufficientCoefficientsError,
    NumberParseError,
    ParameterError,
)
from .repetitions import (
    IndexReport,
    Run,
    brute_force_index,
    max_runs,
    word_index_estimate,
)
from .sturmian import (
    BlockParse,
    IndexFormulaResult,
    RotationParams,
    block_decompose,
    characteristic_prefix,
    rotation_word,
    standard_word,
    sturmian_index_formula,
)
from .threeiet import (
    BoundReport,
    NotAmicable,
    ProjectionReport,
    ThreeIetParams,
    bound_check,
    ternarize,
    threeiet_word,
    verify_projections,
)
from .words import (
    BINARY,
    SPLIT_B01,
    SPLIT_B10,
    TERNARY,
    BalanceCheck,
    Morphism,
    Word,
    is_balanced,
    rotation_coding_morphism,
    sturmian_certificates,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "BalanceCheck",
    "BlockParse",
    "BlockParseError",
    "BoundReport",
    "CFExpansion",
    "FieldMismatchError",
    "IndexFormulaResult",
    "IndexReport",
    "InsufficientCoefficientsError",
    "Morphism",
    "NotAmicable",
    "NumberParseError",
    "ParameterError",
    "ProjectionReport",
    "QuadraticReal",
    "RotationParams",
    "Run",
    "SPLIT_B01",
    "SPLIT_B10",
    "TERNARY",
    "ThreeIetParams",
    "Word",
    "block_decompose",
    "bound_check",
    "brute_force_index",
    "cf_expand",
    "characteristic_prefix",
    "is_balanced",
    "max_runs",
    "parse_quadratic",
    "rotation_coding_morphism",
    "rotation_word",
    "standard_word",
    "sturmian_certificates",
    "sturmian_index_formula",
    "ternarize",
    "threeiet_word",
    "verify_projections",
    "word_index_estimate",
]
