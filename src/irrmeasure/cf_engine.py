"""Continued fraction sources, convergents, and exact rational brackets.

A real number alpha = [a_0; a_1, a_2, ...] is represented by a source of
partial quotients.  Everything downstream works with exact integers and
Fractions; consecutive convergents give shrinking two-sided brackets of
alpha, so no floating point is ever involved.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import SourceExhausted

_M64 = (1 << 64) - 1


@dataclass(frozen=True)
class ConvergentState:
    """Rolling window of the convergent recurrence at index m.

    Holds p_m/q_m together with the previous pair, which is all the
    recurrence p_{m+1} = a*p_m + p_{m-1} (same for q) needs.
    """

    m: int
    p: int
    q: int
    p_prev: int
    q_prev: int

    def advance(self, a: int) -> "ConvergentState":
        if self.m >= 0 and a < 1:
            raise ValueError(f"partial quotient a_{self.m + 1} must be >= 1, got {a}")
        return ConvergentState(
            self.m + 1, a * self.p + self.p_prev, a * self.q + self.q_prev, self.p, self.q
        )

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def determinant(self) -> int:
        # p_m * q_{m-1} - p_{m-1} * q_m, always (-1)^(m-1)
        return self.p * self.q_prev - self.p_prev * self.q


def initial_state(a0: int) -> ConvergentState:
    """State at m = 0: p_0/q_0 = a0/1 with virtual (p_{-1}, q_{-1}) = (1, 0)."""
    return ConvergentState(0, a0, 1, 1, 0)


@dataclass(frozen=True)
class RationalBracket:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"bracket endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def encloses(self, other: "RationalBracket") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "RationalBracket") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def strictly_below(self, other: "RationalBracket") -> bool:
        """Certified: every value here is less than every value there."""
        return self.hi < other.lo

    def scale(self, c: int) -> "RationalBracket":
        if c < 0:
            raise ValueError("only nonnegative scaling is used")
        return RationalBracket(self.lo * c, self.hi * c)


class PartialQuotientSource:
    """Lazily extended sequence of partial quotients defining one number.

    Subclasses implement _emit(m).  Emitted terms and convergent states
    (with their denominators in a plain list that seek bisects) are
    cached.  The caches only ever grow, and each entry is a frozen value
    fixed by the quotients alone, so sharing a source between readers is
    harmless.  Beside them, psi_at's level cursor points at the one level
    it served last, as (width object, q_m, q_{m+1}, settled handle); it
    moves, it never grows, and psi_at hands out only copies of its handle,
    so no reader can see another's refinement depth.
    """

    def __init__(self):
        self._terms: list[int] = []
        self._states: list[ConvergentState] = []
        self._denominators: list[int] = []  # q of each state in _states
        self._cursor: tuple = (None, 0, 0, None)  # psi_at's last level; matches no t

    def _emit(self, m: int) -> int:
        raise NotImplementedError

    def term(self, m: int) -> int:
        if m < 0:
            raise ValueError("term index must be >= 0")
        while len(self._terms) <= m:
            k = len(self._terms)
            a = self._emit(k)
            if k >= 1 and a < 1:
                raise ValueError(f"partial quotient a_{k} must be >= 1, got {a}")
            self._terms.append(a)
        return self._terms[m]

    def state(self, m: int) -> ConvergentState:
        """Convergent state at index m, computed and cached on demand."""
        while len(self._states) <= m:
            k = len(self._states)
            if k == 0:
                st = initial_state(self.term(0))
            else:
                st = self._states[k - 1].advance(self.term(k))
            self._states.append(st)
            self._denominators.append(st.q)
        return self._states[m]

    def seek(self, t: int) -> int:
        """Smallest index m with q_m >= t.

        The denominators never decrease, so this bisects their list after
        extending it only until it holds some q >= t; an explicit source
        that runs out first raises SourceExhausted.  The tie q_0 = q_1 = 1
        resolves to m = 0.
        """
        if t < 1:
            raise ValueError("t must be a positive integer")
        denominators = self._denominators
        while not denominators or denominators[-1] < t:
            self.state(len(denominators))
        return bisect_left(denominators, t)

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


class PeriodicSource(PartialQuotientSource):
    """Eventually periodic quotients, i.e. a quadratic irrational.

    preperiod holds a_0 onward (at least a_0), period repeats forever.
    """

    def __init__(self, preperiod, period):
        super().__init__()
        preperiod = list(preperiod)
        period = list(period)
        if not preperiod:
            raise ValueError("preperiod must contain at least a_0")
        if not period:
            raise ValueError("period must be nonempty")
        for i, a in enumerate(preperiod[1:], start=1):
            if a < 1:
                raise ValueError(f"preperiod term a_{i} must be >= 1")
        if any(a < 1 for a in period):
            raise ValueError("period terms must be >= 1")
        self.preperiod = tuple(preperiod)
        self.period = tuple(period)

    def _emit(self, m):
        if m < len(self.preperiod):
            return self.preperiod[m]
        return self.period[(m - len(self.preperiod)) % len(self.period)]

    def spec_string(self):
        pre = ",".join(str(a) for a in self.preperiod[1:])
        per = ",".join(str(a) for a in self.period)
        return f"periodic:[{self.preperiod[0]};{pre}|{per}]"


class ExplicitSource(PartialQuotientSource):
    """Finite quotient list; running past the end raises SourceExhausted."""

    def __init__(self, terms):
        super().__init__()
        terms = list(terms)
        if len(terms) < 2:
            raise ValueError("explicit source needs at least a_0 and a_1")
        for i, a in enumerate(terms[1:], start=1):
            if a < 1:
                raise ValueError(f"term a_{i} must be >= 1")
        self.terms_list = tuple(terms)

    def _emit(self, m):
        if m >= len(self.terms_list):
            raise SourceExhausted(m, len(self.terms_list))
        return self.terms_list[m]

    def spec_string(self):
        rest = ",".join(str(a) for a in self.terms_list[1:])
        return f"explicit:[{self.terms_list[0]};{rest}]"


class RuleSource(PartialQuotientSource):
    """Quotients from a named rule.

    rule "e": a_0 = 2, and for m >= 1 the quotient is 2*(j+1) when
    m = 3j+2 and 1 otherwise (the classical pattern 1,2,1,1,4,1,1,6,...).
    rule "const": every quotient equals the given constant c >= 1.
    """

    def __init__(self, rule: str, c: int | None = None):
        super().__init__()
        if rule == "e":
            if c is not None:
                raise ValueError("rule 'e' takes no parameter")
        elif rule == "const":
            if c is None or c < 1:
                raise ValueError("rule 'const' needs a constant >= 1")
        else:
            raise ValueError(f"unknown rule {rule!r}")
        self.rule = rule
        self.c = c

    def _emit(self, m):
        if self.rule == "const":
            return self.c
        if m == 0:
            return 2
        if m % 3 == 2:
            return 2 * ((m - 2) // 3 + 1)
        return 1

    def spec_string(self):
        if self.rule == "const":
            return f"rule:const:{self.c}"
        return "rule:e"


def _splitmix64(state: int):
    """One step of the splitmix64 generator; returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31), state


class SeededSource(PartialQuotientSource):
    """Deterministic pseudo-random quotients, uniform in [1, bound].

    Uses splitmix64 with rejection sampling so the stream is exactly
    reproducible from (seed, bound) on any platform.  a_0 is fixed to 0;
    the integer part never matters for distances to nearest integers.
    """

    PRNG_NAME = "splitmix64"

    def __init__(self, seed: int, bound: int):
        super().__init__()
        if bound < 1:
            raise ValueError("quotient bound must be >= 1")
        self.seed = seed
        self.bound = bound
        self._prng_state = seed & _M64

    def _emit(self, m):
        if m == 0:
            return 0
        limit = ((1 << 64) // self.bound) * self.bound
        while True:
            value, self._prng_state = _splitmix64(self._prng_state)
            if value < limit:
                return 1 + value % self.bound

    def spec_string(self):
        return f"seeded:{self.seed}:{self.bound}"


def _parse_int_list(text: str):
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def parse_source(spec: str) -> PartialQuotientSource:
    """Build a source from its string form.

    Grammar:
      periodic:[a0;pre|period]   explicit:[a0;a1,a2,...]
      rule:e                     rule:const:c
      seeded:<seed>:<bound>
    """
    spec = spec.strip()
    if spec.startswith("periodic:[") and spec.endswith("]"):
        body = spec[len("periodic:[") : -1]
        head, sep, rest = body.partition(";")
        if not sep or "|" not in rest:
            raise ValueError(f"malformed periodic source {spec!r}")
        pre_text, _, per_text = rest.partition("|")
        preperiod = [int(head)] + _parse_int_list(pre_text)
        period = _parse_int_list(per_text)
        return PeriodicSource(preperiod, period)
    if spec.startswith("explicit:[") and spec.endswith("]"):
        body = spec[len("explicit:[") : -1]
        head, sep, rest = body.partition(";")
        if not sep:
            raise ValueError(f"malformed explicit source {spec!r}")
        return ExplicitSource([int(head)] + _parse_int_list(rest))
    if spec == "rule:e":
        return RuleSource("e")
    if spec.startswith("rule:const:"):
        return RuleSource("const", int(spec[len("rule:const:") :]))
    if spec.startswith("seeded:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed seeded source {spec!r}")
        return SeededSource(int(parts[1]), int(parts[2]))
    raise ValueError(f"unrecognized source spec {spec!r}")


def bracket(source: PartialQuotientSource, depth: int) -> RationalBracket:
    """Two-sided bracket of alpha from the last two of `depth` convergents.

    Consumes a_0 .. a_{depth-1}; the bracket ends are the convergents at
    indices depth-2 and depth-1, so the width is 1/(q_{depth-1} q_{depth-2}).
    """
    if depth < 2:
        raise ValueError("bracket needs depth >= 2")
    hi_state = source.state(depth - 1)
    lo_value = source.state(depth - 2).value
    hi_value = hi_state.value
    if lo_value > hi_value:
        lo_value, hi_value = hi_value, lo_value
    return RationalBracket(lo_value, hi_value)

