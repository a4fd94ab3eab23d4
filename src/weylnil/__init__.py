"""weylnil: exact first Weyl algebra arithmetic with a certificate-producing
strict-nilpotency decision procedure and bispectral partner construction."""

from .element import (
    WeylElement,
    ccr_check,
    commutator,
    coordinate,
    derivative,
    generators,
    poly_at,
)
from .poly import UniPoly
from .filtration import (
    FactoredForm,
    FormDiagnostic,
    FormIssue,
    NewtonData,
    Weight,
    associated_poly,
    choose_weights,
    factor_form,
    format_bivariate,
    weight_value,
)
from .automorphism import (
    AutoWord,
    Fourier,
    FourierInverse,
    Generator,
    ShiftD,
    ShiftX,
    anti_involution,
    apply_generator,
    apply_word,
    compose,
    invert_generator,
    invert_word,
    shape_bound,
)
from .descent import (
    AdTestResult,
    BispectralPartner,
    BoundExhausted,
    Certificate,
    CounterexampleCandidate,
    EigenObstruction,
    GenerationWitness,
    NilpotentAt,
    NotStrictlyNilpotent,
    Reason,
    StageRecord,
    StrictlyNilpotent,
    TriviallyConstant,
    Verdict,
    ad_nilpotency_test,
    bispectral_partner,
    ccr_to_generators,
    centralizer_generator,
    decide,
    descent_step,
    normalize_subleading,
    random_orbit_element,
    verify_certificate,
)
from .errors import (
    InvariantViolation,
    NotNormalizableError,
    NotStrictlyNilpotentError,
    ParseError,
    SideMismatchError,
    UnsupportedSideError,
    WireFormatError,
)
from .exprs import parse_expression

__version__ = "0.1.0"
