"""Certificate-producing decision engine for substructural logics that
reduce to their multiplicative fragment via a theorem of alternatives."""

from .chains import ChainAlgebra, eval_formula, sugihara_chain
from .check import (
    ChainExhaustiveWitness,
    Countermodel,
    DerivationLine,
    DerivationWitness,
    LinearWitness,
    ProofResult,
    ToACertificate,
    check_result,
    combination_formula,
    countermodel_refutes,
    verify_derivation,
)
from .density import (
    DensityCertificate,
    density_goal,
    density_precondition,
    density_transform,
)
from .engine import (
    ConsequenceResult,
    EngineBudget,
    prove_consequence,
    prove_disjunction,
)
from .errors import (
    ArityError,
    EnumerationBudgetExceededError,
    FormulaSyntaxError,
    GordianError,
    InvalidCertificateError,
    LogicWithoutToAError,
    MissingMetavariableError,
    MissingVariableError,
    NotMultiplicativeError,
    PreconditionFailedError,
    SizeBudgetExceededError,
    UnknownLogicError,
    UnsupportedLogicError,
)
from .interpolate import (
    InterpolationReport,
    lift_interpolant,
    mult_uniform_interpolant,
    verify_interpolant,
)
from .linalg import IntMatrix, Kernel, StrictDual, gordan, project_fm
from .logics import (
    AxiomSchema,
    LogicSpec,
    instantiate,
    knotted_logic,
    lookup_logic,
    match_template,
    registered_logics,
)
from .normalize import Goal, MultClause, decompose_consequence, to_mult_clauses
from .oracles import HilbertBudget, check_toa_condition, decide, sugihara_decide
from .syntax import (
    Conj,
    Disj,
    Formula,
    Fuse,
    Imp,
    MVar,
    ONE,
    One,
    Var,
    ZERO,
    Zero,
    neg,
    parse,
    parse_template,
    plus,
    power,
    render,
    scalar,
    substitute,
    variables,
)

__version__ = "0.1.0"
