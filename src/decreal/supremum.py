"""Digit-by-digit suprema of bounded sets of reals.

A bounded set is presented either as a finite list of members or as a
``Family``: a description of an infinite family by the block of digits
that picking, one place at a time, the largest next digit any member
achieves beyond a confirmed digit prefix would select.  The supremum
procedure takes the maximal integer part, then reads that selection in
blocks of doubling width.  The family may volunteer the shape of the
selection's tail, ``RepeatsFrom(i, p)``: from position i on the digits
repeat with period p, a fixed tail of nines, zeros or any other digit
being the period 1.  The procedure checks the claim over one period and
``HINT_WINDOW`` more selected digits and returns the exact value of the
expansion the selected digits spell, decoded as ``parse_real`` decodes
a literal, with a group of nines read as its terminating neighbour.  A
family that gives no hint gets a digit stream.  Families of negative
values are handled by the mirror procedure (minimal magnitude digits,
negated at the end).

Certification runs the other way: ``is_upper_bound`` and
``check_sup_certificate`` test a claimed supremum against members and
against one smaller bound, 10^-samples below it, never trusting the
selection procedure that produced it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from ._frozen import frozen
from .arithmetic import add
from .errors import (
    CanonicalViolation,
    ExpansionTooLong,
    MalformedLiteral,
    NotLess,
    OrderUndecided,
)
from .realnum import (
    DEFAULT_BUDGET,
    DigitPrefix,
    OracleReal,
    PeriodicReal,
    RealNumber,
    TerminatingReal,
    _decimal_digits,
    _expansion_value,
    between,
    compare,
    parse_real,
)
from .terminating import (
    Comparison,
    TerminatingDecimal,
    digits_from_int,
    pow10,
)

# digits a tail hint is checked over, and that sup reads before it hands
# out a stream without one
HINT_WINDOW = 64


# ---------------------------------------------------------------------------
# tail hints and bounded sets


@frozen
class RepeatsFrom:
    """From this fractional position on, the selected digits repeat with
    this period."""

    index: int
    period: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("tail positions start at 1")
        if self.period < 1:
            raise ValueError("a period is at least one digit long")


def _repeats(x: PeriodicReal) -> Optional[RepeatsFrom]:
    """The periodic tail of x's expansion, or None when the expansion is
    longer than ``MAX_EXPANSION_DIGITS``."""
    try:
        preperiod, period = x._expansion
    except ExpansionTooLong:
        return None
    return RepeatsFrom(len(preperiod) + 1, len(period))


@frozen
class FiniteSet:
    """A nonempty finite set of reals."""

    members: tuple[RealNumber, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a bounded set must be nonempty")


@frozen
class Family:
    """An infinite bounded family, presented by digit selection.

    For a family with a non-negative supremum, ``max_integral`` is the
    largest integer part attained by members, and ``next_digits(p, n)``
    returns, as one string, the n digits that n successive choices of
    the largest next digit among members extending the confirmed prefix
    select after p.  For an all-negative family (``negative`` set), the
    same two callbacks instead report the smallest magnitude integer
    part and the smallest next magnitude digits: the procedure minimises
    and negates.

    ``tail`` is None or ``RepeatsFrom(i, p)``: from fractional position i
    on the selection repeats with period p.  A fixed tail, all nines,
    all zeros or any other digit, is the period p = 1.  ``sup`` then
    returns the exact value, for any i and p, once the first
    ``i - 1 + p + HINT_WINDOW`` selected digits bear the claim out.

    Soundness contract (trusted, spot-checked for built-ins): every
    digit returned is achieved by some member extending the prefix.

    ``member_above(b, budget)`` produces a member strictly above b, or
    None when it cannot; by default it finds none.  For a member list
    and the built-in enumerable families it is the first member above b
    in enumeration order, verified by ``compare``, found with no cap on
    how far along it is.  ``bound_hint(b, budget)`` optionally decides
    "b bounds every member" directly.  Both exist because those
    questions are only semi-decidable through digits.
    """

    max_integral: Callable[[], int]
    next_digits: Callable[[DigitPrefix, int], str]
    tail: Optional[RepeatsFrom] = None
    negative: bool = False
    member_above: Callable[[RealNumber, int], Optional[RealNumber]] = (
        lambda b, budget: None)
    bound_hint: Optional[Callable[[RealNumber, int], Optional[bool]]] = None
    description: str = ""

    @cached_property
    def _selection(self) -> RealNumber:
        """The selected supremum: made once, however many sups and
        upper-bound probes ask for it."""
        return _select_sup(self)


BoundedSet = FiniteSet | Family


# ---------------------------------------------------------------------------
# finite set algebra


def set_sum(a: Iterable[TerminatingDecimal],
            b: Iterable[TerminatingDecimal]) -> set[TerminatingDecimal]:
    """Pairwise sums, duplicates collapsed."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("set_sum requires nonempty operands")
    return {x + y for x in a for y in b}


def set_product(a: Iterable[TerminatingDecimal],
                b: Iterable[TerminatingDecimal]) -> set[TerminatingDecimal]:
    """Pairwise products, duplicates collapsed."""
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("set_product requires nonempty operands")
    return {x * y for x in a for y in b}


# ---------------------------------------------------------------------------
# the supremum procedure


def _max_member(members: Iterable[RealNumber],
                budget: int = DEFAULT_BUDGET) -> RealNumber:
    best = None
    for m in members:
        if best is None:
            best = m
            continue
        c = compare(m, best, budget)
        if c is Comparison.UNDECIDED:
            raise OrderUndecided(
                "finite-set members could not be ordered within the budget")
        if c is Comparison.GT:
            best = m
    return best


def _family_sup(family: Family) -> RealNumber:
    """The selected supremum.  A stream comes back as a new instance each
    time, so no two callers hold the same object, but all instances of a
    family's stream share its selection state, memo and lock."""
    s = family._selection
    return s._alias(s.negative) if isinstance(s, OracleReal) else s


def _select_sup(family: Family) -> RealNumber:
    negative, int_part = family.negative, family.max_integral()
    if int_part < 0:
        raise ValueError("oracles report magnitude integer parts (>= 0)")
    selection = bytearray()

    def select(n: int) -> None:
        # blocks of doubling width: one new prefix a block
        if len(selection) < n:
            w = max(n - len(selection), len(selection))
            head = DigitPrefix(negative, int_part, selection.decode())
            block = family.next_digits(head, w)
            if len(block) != w or not block.isdigit():
                raise ValueError(f"oracle selected non-digits: {block!r}")
            selection.extend(block.encode())

    tail = family.tail
    if tail is not None:
        i, p = tail.index, tail.period
        n = i - 1 + p + HINT_WINDOW
        select(n)
        # every digit from i to n - p equals the one a period later
        if selection[i - 1 + p:n] != selection[i - 1:n - p]:
            raise CanonicalViolation(
                f"the selected digits belie the tail hint {tail!r}")
        return _expansion_value(negative, digits_from_int(int_part),
                                selection[:i - 1].decode(),
                                selection[i - 1:i - 1 + p].decode())
    select(HINT_WINDOW)
    caveat = None
    if selection == b"9" * HINT_WINDOW:
        caveat = (
            f"the first {HINT_WINDOW} selected digits are all 9 and the "
            f"oracle gave no tail hint; if the true selection tail is all "
            f"nines this stream is the non-canonical spelling of its repair")

    def digit_fn(i: int) -> int:
        # the stream's lock is held: one caller extends the selection
        select(i)
        return selection[i - 1] - 48  # ASCII "0" is 48

    return OracleReal(digit_fn, negative=negative, int_part=int_part,
                      promise="digit-selection stream of a bounded family",
                      caveat=caveat)


def sup(S: BoundedSet, *, budget: int = DEFAULT_BUDGET) -> RealNumber:
    """Least upper bound of a bounded set.

    Finite sets return their maximal member directly.  Families run the
    selection procedure.  With a tail hint at any position i, of period p
    (1 for a fixed tail), the result is exact, after one block read of
    the first ``i - 1 + p + HINT_WINDOW`` selected digits
    (``CanonicalViolation`` if those from i on belie the hint).  Without
    one it is a lazy digit stream over the same selection, first read
    ``HINT_WINDOW`` digits deep, with a caveat flag if those are all
    nines.
    """
    if isinstance(S, FiniteSet):
        return _max_member(S.members, budget)
    return _family_sup(S)


# ---------------------------------------------------------------------------
# upper-bound and certificate checks


@frozen
class Yes:
    pass


@frozen
class No:
    witness: RealNumber


@frozen
class Undecided:
    reason: str = ""


@frozen
class Pass:
    """The evidence of a certificate: ``member`` lies above ``probe`` =
    s - 10^-``samples``, as ordered within ``budget``."""

    probe: RealNumber
    member: RealNumber
    samples: int
    budget: int


@frozen
class FailBound:
    witness: RealNumber


@frozen
class FailLeastness:
    witness: RealNumber


def _as_real(x: RealNumber | TerminatingDecimal) -> RealNumber:
    return TerminatingReal(x) if isinstance(x, TerminatingDecimal) else x


def is_upper_bound(b: RealNumber | TerminatingDecimal, S: BoundedSet,
                   budget: int = DEFAULT_BUDGET) -> Yes | No | Undecided:
    """Is every member of S at most b?

    A finite set orders each member against b.  A family asks its
    ``bound_hint`` when it has one, and otherwise orders its selected
    supremum against b; a bound that fails is refuted by the family's
    ``member_above(b)``.  No always carries a member witness.  Undecided
    reports budget exhaustion, or a family that exceeds the bound only
    beyond anything its witness search can name.
    """
    b = _as_real(b)
    if isinstance(S, FiniteSet):
        undecided = None
        for m in S.members:
            c = compare(m, b, budget)
            if c is Comparison.GT:
                return No(m)
            if c is Comparison.UNDECIDED:
                undecided = m
        if undecided is not None:
            return Undecided(
                "a member could not be ordered against the bound")
        return Yes()
    if S.bound_hint is not None:
        verdict = S.bound_hint(b, budget)
        if verdict is True:
            return Yes()
        if verdict is False:
            w = S.member_above(b, budget)
            if w is not None:
                return No(w)
            return Undecided("bound fails but no member witness was found")
    c = compare(_family_sup(S), b, budget)
    if c in (Comparison.LT, Comparison.EQ):
        return Yes()
    w = S.member_above(b, budget)
    if w is not None:
        return No(w)
    if c is Comparison.GT:
        return Undecided(
            "the supremum stream exceeds the bound but the family "
            "exposes no member witness")
    return Undecided("comparison against the supremum ran out of budget")


def _first_member_above(members: Iterable[RealNumber], b: RealNumber,
                        budget: int) -> Optional[RealNumber]:
    """The first of the members that ``compare`` puts above b."""
    return next((m for m in members
                 if compare(m, b, budget) is Comparison.GT), None)


def check_sup_certificate(s: RealNumber | TerminatingDecimal, S: BoundedSet,
                          samples: int = 50,
                          budget: int = DEFAULT_BUDGET
                          ) -> Pass | FailBound | FailLeastness:
    """Certification that s is the least upper bound of S, to ``samples``
    decimal digits.

    Two obligations: s bounds every member (FailBound with a member
    witness otherwise), and no upper bound of S lies below the one probe
    p = s - 10^-samples, the claim the paper's digit-by-digit
    construction supports at that many digits.  A member q above p
    meets the second (FailBound if q is above s after all); with no
    member found, p refutes leastness when it checks out as an upper
    bound (FailLeastness with witness p).  A member above p is above
    every coarser probe too, so ``Pass`` carries p, that member,
    ``samples`` and the budget as its evidence.  Raises OrderUndecided
    if the probe settles neither way within the budget, as it can when
    the budget does not reach past ``samples`` digits.

    Leastness holds to the resolution, not beyond it: an s above the
    true supremum by less than 10^-samples can still Pass.  For
    ``lower_cut(0.5)``, s = 0.5 + 10^-50 passes at samples=20 and fails
    at samples=60; ``compare`` against ``sup(S)`` tells it apart from
    the supremum either way.  The name ``samples`` is kept for the
    callers that pass it.
    """
    if samples < 1:
        raise ValueError("at least one digit of resolution is required")
    s = _as_real(s)
    if isinstance(S, FiniteSet):
        verdict = is_upper_bound(s, S, budget)
        if isinstance(verdict, No):
            return FailBound(verdict.witness)
        if isinstance(verdict, Undecided):
            raise OrderUndecided(
                f"bound side of the certificate is undecided: "
                f"{verdict.reason}")
    else:
        # family bound side by member sampling: comparing s against the
        # selection stream it may have come from is never decidable, so
        # the obligation is refuted by a member witness or stands
        w = S.member_above(s, budget)
        if w is not None:
            return FailBound(w)

    p = add(s, TerminatingReal(TerminatingDecimal(-1, samples)))
    if not isinstance(S, FiniteSet):
        q = S.member_above(p, budget)
        if q is not None:
            if compare(q, s, budget) is Comparison.GT:
                return FailBound(q)
            return Pass(p, q, samples, budget)
    # the bound side showed s an upper bound, so every value above s is
    # one too: only the probe below s can refute leastness, and a finite
    # set's member above it is at most s already
    inner = is_upper_bound(p, S, budget)
    if isinstance(inner, Yes):
        return FailLeastness(p)
    if isinstance(inner, No):
        return Pass(p, inner.witness, samples, budget)
    raise OrderUndecided(
        "the leastness probe could settle neither way within the budget")


# ---------------------------------------------------------------------------
# families backed by explicit member lists


def finite_family(members: Iterable[RealNumber]) -> Family:
    """The family of an explicit finite set of exact reals.

    The selection stream provably follows the digits of the maximal
    member (lexicographic and numeric order agree on canonical
    expansions), so the family hints at that member's tail: zeros, the
    period 1, after its last digit when it terminates, its period from
    the end of its preperiod when it repeats.  sup then returns that
    member exactly, however long it is.  A period longer than
    ``MAX_EXPANSION_DIGITS`` gives no hint, and the supremum is a digit
    stream.  Exists for cross-checking sup against plain max.

    Each member's integer part is read once.  A selection of n digits
    reads the digits up to its end from each member with the prefix's
    integer part, in one ``_read``, then makes one ``startswith`` and one
    slice: the largest slice (the smallest for a negative pool) is what
    n digit-by-digit choices pick.  Nothing is kept between selections,
    so a caller that selects one digit at a time reads every member's
    digits again each time; ``sup`` selects in blocks of doubling width.
    No rational arithmetic runs.
    """
    members = tuple(members)
    if not members:
        raise ValueError("a bounded set must be nonempty")
    if not all(m.is_exact for m in members):
        raise ValueError("member-backed families require exact members")
    negative = all(m.negative for m in members)
    pool = members if negative else tuple(
        m for m in members if not m.negative)
    pick = min if negative else max
    best = _max_member(pool)

    int_parts = [m.int_part for m in pool]

    def next_digits(prefix: DigitPrefix, n: int) -> str:
        start, end = len(prefix), len(prefix) + n
        blocks = []
        for m, int_part in zip(pool, int_parts):
            if int_part == prefix.int_part:
                # an exact member reads every digit asked for
                digits = m._read(end)[0]
                if digits.startswith(prefix.digits):
                    blocks.append(digits[start:end])
        return pick(blocks)

    def member_above(b: RealNumber, budget: int) -> Optional[RealNumber]:
        return _first_member_above(members, b, budget)

    tail = (RepeatsFrom(best.value.scale + 1, 1)
            if isinstance(best, TerminatingReal) else _repeats(best))
    return Family(lambda: pick(int_parts), next_digits, tail,
                  negative=negative, member_above=member_above,
                  description=f"finite family of {len(members)} members")


# ---------------------------------------------------------------------------
# built-in families


def _first_above(head: tuple[TerminatingDecimal, ...],
                 tail: Optional[tuple[int, int, int]] = None
                 ) -> Callable[[RealNumber, int], Optional[RealNumber]]:
    """``member_above`` for a family enumerated as the head members, then,
    when tail = (top, c, s) is given, top - c * 10**-(j + s) for j = 0, 1,
    ..., which increase to top.  It returns the first member above b in
    that order, each candidate checked by ``compare``.  The tail member
    is named from b's upper enclosure at the budget, with no walk and no
    cap on j: it is the first above that end, so for a b known only
    through enclosures it is the first above b unless a member lies less
    than 10**-budget above b, where the budget cannot tell them apart."""
    head = tuple(map(TerminatingReal, head))

    def candidates(b: RealNumber, budget: int) -> Iterator[RealNumber]:
        yield from head
        if tail is None:
            return
        top, c, s = tail
        _, hi, k = b._grid(budget)
        gap = top * 10 ** k - hi
        if gap > 0:
            # the least j with c * 10**k < gap * 10**(j + s): the first
            # tail member above hi * 10**-k, which is at least b
            j = max(_decimal_digits(c * 10 ** k + 1, gap) - s, 0)
            yield TerminatingReal(
                TerminatingDecimal(top * 10 ** (j + s) - c, j + s))

    def member_above(b: RealNumber, budget: int) -> Optional[RealNumber]:
        return _first_member_above(candidates(b, budget), b, budget)

    return member_above


def _nine_family() -> Family:
    """0.9, 0.99, 0.19, 0.991, 0.9991, ... — supremum 1, never attained."""
    return Family(
        max_integral=lambda: 0,
        next_digits=lambda prefix, n: "9" * n,
        tail=RepeatsFrom(1, 1),
        # after the head, j nines then a one: 1 - 9 * 10**-(j + 1), j >= 2
        member_above=_first_above(
            (TerminatingDecimal(9, 1), TerminatingDecimal(99, 2),
             TerminatingDecimal(19, 2)), tail=(1, 9, 3)),
        description="terminating decimals crowding up to 1")


def _negated_nine_family() -> Family:
    """-1, -0.9, -0.99, -0.19, -0.991, ... — supremum -0.19, attained."""
    return Family(
        max_integral=lambda: 0,
        # minimal magnitudes: 0.19 wins the first digit, then stays
        next_digits=lambda prefix, n: "19".ljust(
            len(prefix) + n, "0")[len(prefix):][:n],
        tail=RepeatsFrom(3, 1),
        negative=True,
        # the rest, -0.991, -0.9991, ..., lie below -0.9, which comes
        # before them: the first member above any b is in the head
        member_above=_first_above(
            (TerminatingDecimal(-1), TerminatingDecimal(-9, 1),
             TerminatingDecimal(-99, 2), TerminatingDecimal(-19, 2))),
        description="negated crowding family plus -1")


def _vanishing_family() -> Family:
    """-0.1, -0.01, -0.001, ... — supremum 0, never attained."""
    return Family(
        max_integral=lambda: 0,
        next_digits=lambda prefix, n: "0" * n,
        tail=RepeatsFrom(1, 1),
        negative=True,
        member_above=_first_above((), tail=(0, 1, 1)),
        description="negative powers of ten approaching zero")


def _worked_example_family() -> Family:
    return finite_family((
        parse_real("1"),
        parse_real("2.12"),
        parse_real("1.(1)"),
        parse_real("2.120(1)"),
        parse_real("1.120101(1)"),
    ))


def lower_cut(c: RealNumber) -> Family:
    """The family of all terminating decimals strictly below an exact c.

    The selection reproduces the digits of c itself, or for a positive
    terminating c the digits of c less one unit in its last place, then
    nines.  The family hints at that tail (nines or, for c <= 0, zeros,
    each the period 1, or c's period), so its sup is exactly c; a period longer than
    ``MAX_EXPANSION_DIGITS`` gives no hint, and the sup is the identical
    digit stream.  Witnesses come from betweenness: any bound b < c is
    exceeded by a member strictly between b and c.

    The selection is read from c's own digits, with no division and no
    ``Fraction``.  A prefix that leaves them is answered too: below the
    selection every later digit is 9 (0 for a negative cut, above it),
    and a prefix on the other side has left the cut.
    """
    if not c.is_exact:
        raise ValueError("lower cuts are supported for exact reals")
    terminating = isinstance(c, TerminatingReal)
    negative = c.negative or terminating and c.value.is_zero()
    own = c
    if not terminating:
        tail = _repeats(c)
    else:
        # magnitudes above |c| reach |c| itself, then zeros; members
        # below a positive c reach c less one unit in its last place,
        # then nines
        k = c.value.scale
        tail = RepeatsFrom(k + 1, 1)
        if not negative:
            own = TerminatingReal(c.value - pow10(-k))
    start = own.int_part
    fill = "0" if negative else "9"

    def selected(n: int) -> str:
        """The first n selected digits after ``start``."""
        if terminating:
            return own._read(min(n, tail.index - 1))[0].ljust(n, fill)
        return own._read(n)[0]

    def next_digits(prefix: DigitPrefix, w: int) -> str:
        n = len(prefix)
        ahead = selected(n + w)
        mine, theirs = (prefix.int_part, prefix.digits), (start, ahead[:n])
        if mine == theirs:
            return ahead[n:]
        if (mine < theirs) != negative:
            return fill * w
        raise AssertionError("the prefix has left the cut")

    def member_above(b: RealNumber, budget: int) -> Optional[RealNumber]:
        try:
            return TerminatingReal(between(b, c, budget))
        except (NotLess, OrderUndecided):
            return None

    def bound_hint(b: RealNumber, budget: int) -> Optional[bool]:
        verdict = compare(b, c, budget)
        if verdict is Comparison.UNDECIDED:
            return None
        return verdict is not Comparison.LT

    return Family(lambda: start, next_digits, tail, negative=negative,
                  member_above=member_above, bound_hint=bound_hint,
                  description="terminating decimals below an exact real")


_BUILTINS: dict[str, Callable[[], Family]] = {
    "paper-A": _worked_example_family,
    "paper-B": _nine_family,
    "paper-C": _negated_nine_family,
    "paper-D": _vanishing_family,
}


def builtin_family(name: str) -> Family:
    """Resolve a set-file family directive: one of the bundled example
    families, or ``lower-cut <literal>``."""
    name = name.strip()
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("lower-cut"):
        literal = name[len("lower-cut"):].strip()
        if not literal:
            raise MalformedLiteral("lower-cut requires a literal argument")
        return lower_cut(parse_real(literal))
    raise MalformedLiteral(f"unknown family: {name!r}")


def load_set_file(path: str) -> BoundedSet:
    """Read a bounded set: one real literal per line, or a single
    ``# family: <name>`` header selecting a built-in family.  Other
    ``#`` lines and blank lines are ignored."""
    family: Optional[str] = None
    literals: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("family:"):
                    if family is not None:
                        raise MalformedLiteral(
                            "set file declares more than one family")
                    family = body[len("family:"):].strip()
                continue
            literals.append(line)
    if family is not None:
        if literals:
            raise MalformedLiteral(
                "a family set file must not also list members")
        return builtin_family(family)
    if not literals:
        raise MalformedLiteral("set file is empty")
    return FiniteSet(tuple(parse_real(text) for text in literals))
