"""The package's public names, pinned: a change to them is made on
purpose, here as well as in the code."""

import decreal

PUBLIC_NAMES = [
    "CanonicalViolation", "Classification", "Comparison", "ComputedReal",
    "DecrealError", "DigitPrefix", "DigitsUnstable", "Enclosure",
    "ExpansionTooLong", "Family", "FiniteSet", "MalformedLiteral",
    "NegativeRadicand", "NoPeriodFound", "NotLess", "OracleReal",
    "OrderUndecided", "PeriodFound", "PeriodicReal", "PhiOk",
    "PhiViolation", "RealNumber", "RepeatsFrom", "SignUndecided",
    "TerminatingDecimal", "TerminatingReal", "add", "archimedean_witness",
    "assert_no_period", "between", "builtin_family",
    "canonicalize_trailing_nines", "check_sup_certificate", "classify",
    "compare", "decimal_representation", "digit_at", "evaluate",
    "finite_family", "from_periodic", "integral_part", "is_upper_bound",
    "load_set_file", "lower_cut", "mul", "neg", "parse_real",
    "parse_terminating", "phi_check", "real_from_fraction", "reciprocal",
    "render_digits", "set_product", "set_sum", "sqrt", "sup", "to_decimal",
]


def test_public_names_are_pinned():
    assert sorted(decreal.__all__) == PUBLIC_NAMES
