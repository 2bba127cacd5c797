"""Exact real arithmetic on canonical decimal expansions.

Every value is a signed decimal expansion with no tail of nines, so
distinct expansions denote distinct reals and the usual order on reals
is the lexicographic order on expansions.  The package provides exact
terminating and repeating decimals, lazily refined computed reals,
budgeted comparison, strict-betweenness witnesses, digit-by-digit
suprema of bounded sets, certified interval evaluation of arithmetic
expressions, and a command-line calculator over all of it.
"""

from types import ModuleType as _Module

from .arithmetic import (
    Enclosure,
    add,
    archimedean_witness,
    evaluate,
    mul,
    neg,
    reciprocal,
    sqrt,
)
from .errors import (
    CanonicalViolation,
    DecrealError,
    DigitsUnstable,
    ExpansionTooLong,
    MalformedLiteral,
    NegativeRadicand,
    NotLess,
    OrderUndecided,
    SignUndecided,
)
from .rationals import (
    NoPeriodFound,
    PeriodFound,
    PhiOk,
    PhiViolation,
    assert_no_period,
    decimal_representation,
    from_periodic,
    phi_check,
    to_decimal,
)
from .realnum import (
    Classification,
    ComputedReal,
    DigitPrefix,
    OracleReal,
    PeriodicReal,
    RealNumber,
    TerminatingReal,
    between,
    canonicalize_trailing_nines,
    classify,
    compare,
    digit_at,
    integral_part,
    parse_real,
    real_from_fraction,
    render_digits,
)
from .supremum import (
    Family,
    FiniteSet,
    RepeatsFrom,
    builtin_family,
    check_sup_certificate,
    finite_family,
    is_upper_bound,
    load_set_file,
    lower_cut,
    set_product,
    set_sum,
    sup,
)
from .terminating import Comparison, TerminatingDecimal, parse_terminating

__version__ = "0.1.0"

# every name imported above is public
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _Module))
