"""Linear rewriting over path algebras: polygraphs, completion, resolutions."""

from .scalars import Field, FieldError, ParameterField, PrimeField, QQ, RationalField, GF
from .algebra import (
    CompositionError,
    Generator,
    Monomial,
    MonomialOrder,
    Polynomial,
    Quiver,
    leading_data,
    monomial_poly,
)
from .rewriting import (
    NotCertifiedError,
    Polygraph2,
    RewriteError,
    RewriteStep,
    Rule,
    StepBudgetExceeded,
    Trace,
    nf,
    normal_form,
    pbw_check,
    quotient_dimension,
    standard_basis,
)
from .completion import (
    Branching,
    CompletionBoundExceeded,
    DegreeBoundExceeded,
    PatternMeasure,
    TerminationCertificate,
    certify_termination,
    check_confluence,
    complete,
    enumerate_critical_branchings,
    is_confluent,
    orient,
    s_polynomial,
)
from .resolution import (
    ChainCell,
    boundary4,
    cell_degrees,
    ell,
    enumerate_chains,
    generating_confluence,
)
from .homology import (
    KoszulVerdict,
    ReducedComplex,
    TorTable,
    build_complex,
    collapse_saturate,
    koszul_verdict,
    tor_table,
)

__version__ = "0.1.0"
