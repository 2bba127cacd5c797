"""Exceptions shared across the package.

Most operations on digit-stream reals are only semi-decidable: a question
such as "is this value below one?" can be answered by inspecting finitely
many digits when the answer is yes, but no finite amount of work can
confirm the boundary case.  The exceptions here make every such budget
exhaustion explicit instead of silently returning a wrong answer.
"""

from __future__ import annotations


class DecrealError(Exception):
    """Base class for all library errors."""


class MalformedLiteral(DecrealError, ValueError):
    """A decimal or real literal violates the input grammar."""


class OrderUndecided(DecrealError):
    """An order question could not be settled within the digit budget."""


class NotLess(DecrealError):
    """A strict a < b precondition failed: a >= b was proven."""


class SignUndecided(DecrealError):
    """A value is indistinguishable from zero within the digit budget."""


class DigitsUnstable(DecrealError):
    """Digits of a computed value would not stabilise within the budget.

    Raised when a value sits on (or too close to) an exact decimal
    boundary, where the 0.999.../1.000... ambiguity prevents committing
    to a digit prefix.  Interval enclosures of the value remain available.
    """

    def __init__(self, digits: int, budget: int):
        self.digits = digits
        self.budget = budget
        super().__init__(
            f"digits did not stabilise at position {digits} "
            f"within a budget of {budget} refinement digits"
        )


class CanonicalViolation(DecrealError):
    """A digit stream failed a canonical-form check (for example a run of
    nines longer than the verification window, which the checker cannot
    distinguish from a forbidden all-nines tail)."""


class NegativeRadicand(DecrealError, ValueError):
    """A square root was requested of a provably negative value."""


class ExpansionTooLong(DecrealError):
    """An exact expansion is too long to materialise.

    Rendering an eventually periodic value writes out its preperiod and
    one whole period, and the period of p/q can be nearly q digits long.
    Past ``limit`` digits that is refused; single digits (``digit_at``)
    and prefixes (``decimal_representation``) stay available.
    """

    def __init__(self, value, limit: int):
        self.value = value
        self.limit = limit
        super().__init__(
            f"the expansion of {value} is longer than {limit} digits; "
            f"`decreal rep {value} --digits N` prints its first N digits")
