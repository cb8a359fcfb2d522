"""Exact evaluation of the irrationality measure function.

psi_alpha(t) = min over integer 1 <= q <= t of ||q*alpha||, the distance
from q*alpha to the nearest integer.  For irrational alpha this is a
non-increasing staircase whose value on [q_m, q_{m+1}) is ||q_m*alpha||,
with q_m the convergent denominators.  All values are returned as exact
rational brackets that can be refined on demand.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cf_engine import PartialQuotientSource, RationalBracket
from .errors import NotAJumpPoint

DEFAULT_TARGET_WIDTH = Fraction(1, 2**80)
_STEP = 4  # refine_to's default step, which psi_at and psi_left_limit use


class _BracketEnds:
    """The ends lo = lo_num/lo_den <= hi = hi_num/hi_den of one handle.

    Handles are ordered and separated by cross-multiplying these integers
    (see strictly_below); the RationalBracket of the two Fractions is built
    the first time .bracket is read and then kept here.  Copies of a handle
    share this object, so they share one lo and one hi Fraction too.
    """

    __slots__ = ("lo_num", "lo_den", "hi_num", "hi_den", "_bracket")

    def __init__(self, lo_num: int, lo_den: int, hi_num: int, hi_den: int):
        self.lo_num, self.lo_den = lo_num, lo_den
        self.hi_num, self.hi_den = hi_num, hi_den
        self._bracket = None

    @property
    def bracket(self) -> RationalBracket:
        if self._bracket is None:
            self._bracket = RationalBracket(
                Fraction(self.lo_num, self.lo_den), Fraction(self.hi_num, self.hi_den)
            )
        return self._bracket


class ApproximationError:
    """Refinable exact bracket for ||q_m * alpha|| at one staircase level.

    The handle owns its current refinement depth and ends; refine() only
    ever moves this object's, stepping the ends it holds, so no handle sees
    another's depth.

    At depth D the ends are K_d/q_d, d = D-2, D-1: ||x|| at convergents of
    q_m*alpha.  With p_n nearest q_m*alpha (n = m, or n = 1 at m = 0 with
    a_1 = 1), K_d = |q_m*p_d - p_n*q_d| is the tail continuant, stepped by
    K_d = a_d*K_{d-1} + K_{d-2} from K_n = 0, K_{n+1} = 1; end d is the
    lower one iff d - n is even.  For n = m, 1/||q_m*alpha|| = q_{m+1} +
    q_m/alpha_{m+2} puts each end's reciprocal in [floor, ceil] =
    [q_{m+1}, q_{m+1} + q_m]; n = 1 starts at the end 0: (0, inf).
    """

    __slots__ = ("source", "m", "label", "q", "_n", "floor", "ceil", "depth", "ends")

    def __init__(self, source: PartialQuotientSource, m: int, label: str | None = None):
        if m < 0:
            raise ValueError("level index must be >= 0")
        self.source = source
        self.m = m
        self.label = label
        following = source.state(m + 1)
        self.q, q_next = following.q_prev, following.q
        self._n = 1 if q_next == self.q else m
        self.floor, self.ceil = (0, math.inf) if self._n != m else (q_next, q_next + self.q)
        # the first depth whose ends d = m+1, m+2 are both past n = m, so
        # nonzero; refine() moves on from here
        self.depth = m + 3
        self.ends = self._ends_at(self.depth, self._n + 1, 0, 1)

    @property
    def bracket(self) -> RationalBracket:
        ends = self.ends
        return ends._bracket or ends.bracket  # the property only on first read

    def _copy(self, label: str | None) -> ApproximationError:
        """A separate handle of the same class at this one's (m, depth, ends),
        carrying label; no state is read and no width tested."""
        cls = type(self)
        copy = cls.__new__(cls)
        copy.source = self.source
        copy.m = self.m
        copy.label = label
        copy.q = self.q
        copy._n = self._n
        copy.floor = self.floor
        copy.ceil = self.ceil
        copy.depth = self.depth
        copy.ends = self.ends
        return copy

    def _ends_at(self, depth: int, top: int, shallow: int, deep: int) -> _BracketEnds:
        """New ends at depth, stepping (K_{top-1}, K_top) = (shallow, deep)
        up to depth - 1.  The state read first caches the quotients, so an
        explicit source runs out before anything is stepped."""
        deepest = self.source.state(depth - 1)
        terms = self.source._terms
        for d in range(top + 1, depth):
            shallow, deep = deep, terms[d] * deep + shallow
        if (depth - self._n) % 2:
            return _BracketEnds(deep, deepest.q, shallow, deepest.q_prev)
        return _BracketEnds(shallow, deepest.q_prev, deep, deepest.q)

    def _move_to(self, depth: int) -> None:
        e = self.ends  # (K_{D-2}, K_{D-1}) at D = self.depth, by the parity rule
        pair = (e.hi_num, e.lo_num) if (self.depth - self._n) % 2 else (e.lo_num, e.hi_num)
        self.ends = self._ends_at(depth, self.depth - 1, *pair)
        self.depth = depth

    def refine(self, extra: int = 1) -> None:
        if extra < 1:
            raise ValueError("refinement step must be >= 1")
        self._move_to(self.depth + extra)

    def refine_to(self, target_width: Fraction, step: int = _STEP) -> None:
        """Step the depth by `step` until the width is at most target_width.

        Both ends lie on the same side of p_n, so the width at depth D is
        q_m * |p_{D-1}/q_{D-1} - p_{D-2}/q_{D-2}|, which the determinant
        identity makes exactly q_m / (q_{D-1} * q_{D-2}).  The test is
        therefore an integer product; the ends are stepped once, to the
        final depth, and only if the depth moved.  A target_width that is
        not positive raises ValueError before anything is read.
        """
        self._settle(*_width_ratio(target_width), step)

    def _settle(self, num: int, den: int, step: int) -> None:
        """refine_to's search for a width num/den > 0."""
        scaled_q = self.q * den
        depth = self.depth
        deepest = self.source.state(depth - 1)
        while scaled_q > num * deepest.q * deepest.q_prev:
            if step < 1:
                raise ValueError("refinement step must be >= 1")
            depth += step
            deepest = self.source.state(depth - 1)
        if depth != self.depth:
            self._move_to(depth)

    def __repr__(self):
        who = self.label or "?"
        return f"ApproximationError({who}, m={self.m}, q={self.q}, width={float(self.bracket.width):.3e})"


def _width_ratio(target_width: Fraction) -> tuple[int, int]:
    """target_width > 0 as (num, den), the integers the width search
    compares.  No depth reaches a width <= 0."""
    num, den = target_width.as_integer_ratio()
    if num <= 0:
        raise ValueError("target width must be positive")
    return num, den


def _settled(source: PartialQuotientSource, m: int, width: tuple[int, int]) -> ApproximationError:
    """A new handle at level m, built at m + 3 and refined by refine_to's
    search for width = (num, den)."""
    handle = ApproximationError(source, m)
    handle._settle(*width, _STEP)
    return handle


def _level(source: PartialQuotientSource, t: int) -> int:
    """The largest m with q_m <= t (ties at q = 1 resolve to the larger m).

    It looks up the first q > t; an explicit source that runs out first
    raises SourceExhausted, which is the honest answer.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    return source.seek(t + 1) - 1


def level_handle(
    source: PartialQuotientSource, t: int, label: str | None = None
) -> ApproximationError:
    """Handle for the staircase value at integer t, at its starting depth.

    The width at the starting depth m + 3 is q_m/(q_{m+1}*q_{m+2}) <= 1.
    """
    return ApproximationError(source, _level(source, t), label)


def psi_at(
    source: PartialQuotientSource,
    t: int,
    target_width: Fraction = DEFAULT_TARGET_WIDTH,
    label: str | None = None,
) -> ApproximationError:
    """Staircase value at integer t as a refinable exact bracket.

    A fresh handle, as level_handle's after refine_to(target_width), with
    its own depth and label.  A target_width <= 0 raises ValueError before
    the source is read.

    The source's level cursor holds the last level served and its settled
    template: a call with the same target_width object and q_m <= t <
    q_{m+1} copies the template at once, with no width test, level search
    or refinement.  Every other call settles a new template and then moves
    the cursor to it; a call that raises leaves the cursor where it was.
    """
    width, q_lo, q_hi, template = source._cursor
    if width is target_width and q_lo <= t < q_hi:
        return template._copy(label)
    ratio = _width_ratio(target_width)
    m = _level(source, t)
    template = _settled(source, m, ratio)
    q = source._denominators
    source._cursor = (target_width, q[m], q[m + 1], template)
    return template._copy(label)


def psi_left_limit(
    source: PartialQuotientSource,
    t: int,
    target_width: Fraction = DEFAULT_TARGET_WIDTH,
    label: str | None = None,
) -> ApproximationError:
    """Value held just before the jump at t, i.e. the previous level.

    t must be a convergent denominator q_m with m >= 2; anything else is
    NotAJumpPoint.  The handle is settled as in psi_at, but on every call:
    the cursor is neither read nor moved.
    """
    width = _width_ratio(target_width)
    if t < 2:
        raise NotAJumpPoint(f"t={t} is below every jump with m >= 2")
    m = source.seek(t)
    if source.state(m).q != t or m < 2:
        raise NotAJumpPoint(f"t={t} is not a denominator with index >= 2")
    handle = _settled(source, m - 1, width)
    handle.label = label
    return handle


def strictly_below(a: ApproximationError, b: ApproximationError) -> bool:
    """Certified: every value in a's bracket is less than every value in b's.

    The top of a's bracket lies strictly under the bottom of b's: at once
    if the first-order bounds are apart (strictly, as a closed bracket can
    reach them), else by one cross-multiplication of the integer ends.
    """
    if a.floor > b.ceil or b.floor > a.ceil:
        return a.floor > b.ceil
    x, y = a.ends, b.ends
    return x.hi_num * y.lo_den < y.lo_num * x.hi_den
