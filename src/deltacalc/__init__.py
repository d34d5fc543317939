"""Symbolic-numeric calculus for Dirac delta expressions over rank-indexed
virtual numbers and functions."""

from .errors import (
    ConfigError,
    DeltaCalcError,
    ExpressionError,
    ParseError,
    ProfileOverflowError,
    QuadratureError,
    RankEvaluationError,
    RewriteError,
    SmoothnessError,
)
from .exprlang import lift, parse, parse_expression, render
from .limits import DEFAULT_SCHEDULE
from .rewrite import (
    CompTerm,
    ContractionTerm,
    DeltaTerm,
    EquivalenceVerdict,
    NormalForm,
    ProductTerm,
    ScaleTerm,
    SmoothTerm,
    SumTerm,
    check_equivalence,
    evaluate_normal_form,
    kernel_dependence_probe,
    reduce_expr_integral,
    rewrite_composition,
    rewrite_convolution,
    rewrite_deriv_product,
    rewrite_product,
    sift_battery,
    simplify,
    standard_battery,
)
from .roots import (
    HypothesisCertificate,
    RootRecord,
    certify_hypotheses,
    find_simple_roots,
)
from .vfun import (
    C_INF,
    DiracCertificate,
    DiracFailure,
    DiracKernel,
    RealFunction,
    VirtualFunction,
    bump_delta,
    cauchy_psi,
    check_dirac,
    const_function,
    eval_at,
    kernel_from_json,
    kernel_to_json,
    mixture,
    point_altered_delta,
    shifted_delta,
    square_delta,
)
from .vintegral import (
    IntegralResult,
    compose,
    convolve,
    integrate_rank,
    reduce_integral,
    sift,
    sift_derivative,
)
from .vnum import (
    NumberClass,
    OrderVerdict,
    VirtualNumber,
    classify,
    eventually_compare,
    from_sequence,
    make_const,
    omega,
    partial,
    shadow,
)

__version__ = "0.1.0"
