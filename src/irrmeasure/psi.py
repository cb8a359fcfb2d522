"""Exact evaluation of the irrationality measure function.

psi_alpha(t) = min over integer 1 <= q <= t of ||q*alpha||, the distance
from q*alpha to the nearest integer.  For irrational alpha this is a
non-increasing staircase whose value on [q_m, q_{m+1}) is ||q_m*alpha||,
with q_m the convergent denominators.  All values are returned as exact
rational brackets that can be refined on demand.
"""

from __future__ import annotations

from fractions import Fraction

from .cf_engine import PartialQuotientSource, RationalBracket
from .errors import NotAJumpPoint

DEFAULT_TARGET_WIDTH = Fraction(1, 2**80)
_STEP = 4  # quotients per step of refine_to's width search


class _BracketEnds:
    """The ends lo = lo_num/lo_den <= hi = hi_num/hi_den of one handle.

    Handles are ordered and separated by cross-multiplying these integers
    (see strictly_below); the RationalBracket of the two Fractions is built
    the first time .bracket is read and then kept here.  Copies of a handle
    share this object, so they share one lo and one hi Fraction too.

    lo_key and hi_key are lo and hi as correctly rounded floats.  lo_key
    is None, and hi_key unset, until order_dynamics._certify first sorts
    three or more handles, one with these ends; psi_at and psi_left_limit
    never compute them.
    """

    __slots__ = ("lo_num", "lo_den", "hi_num", "hi_den", "_bracket", "lo_key", "hi_key")

    def __init__(self, lo_num: int, lo_den: int, hi_num: int, hi_den: int):
        self.lo_num, self.lo_den = lo_num, lo_den
        self.hi_num, self.hi_den = hi_num, hi_den
        self._bracket = None
        self.lo_key = None

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
    q_m*alpha.  With p_m nearest q_m*alpha, K_d = |q_m*p_d - p_m*q_d| is the
    tail continuant, stepped by K_d = a_d*K_{d-1} + K_{d-2} from K_m = 0,
    K_{m+1} = 1; end d is the lower one iff d - m is even.  1/||q_m*alpha||
    = q_{m+1} + q_m/alpha_{m+2} puts each end's reciprocal in [floor, ceil]
    = [q_{m+1}, q_{m+1} + q_m].  Level 0 with q_0 = q_1 (a_1 = 1) is no
    staircase level, so it raises ValueError.
    """

    __slots__ = ("source", "m", "label", "q", "floor", "ceil", "depth", "ends")

    def __init__(self, source: PartialQuotientSource, m: int, label: str | None = None):
        if m < 0:
            raise ValueError("level index must be >= 0")
        self.source = source
        self.m = m
        self.label = label
        qs = source._denominators
        q_next = qs[m + 1] if len(qs) > m + 1 else source.denominator(m + 1)
        self.q = q = qs[m]
        if q_next == q:
            raise ValueError("level 0 is no staircase level when q_0 = q_1")
        q_deep = qs[m + 2] if len(qs) > m + 2 else source.denominator(m + 2)
        self.floor, self.ceil = q_next, q_next + q
        # the first depth whose ends d = m+1, m+2 are both past m, so
        # nonzero; refine() moves on from here.  They are the starting
        # continuants K_{m+2} = a_{m+2} over q_{m+2}, the lower end, and
        # K_{m+1} = 1 over q_{m+1}
        self.depth = m + 3
        self.ends = _BracketEnds(source._terms[m + 2], q_deep, 1, q_next)

    @property
    def bracket(self) -> RationalBracket:
        ends = self.ends
        return ends._bracket or ends.bracket  # the property only on first read

    def _copy(self, label: str | None) -> ApproximationError:
        """A separate handle of the same class at this one's (m, depth, ends),
        carrying label; no denominator is read and no width tested."""
        cls = type(self)
        copy = cls.__new__(cls)
        copy.source = self.source
        copy.m = self.m
        copy.label = label
        copy.q = self.q
        copy.floor = self.floor
        copy.ceil = self.ceil
        copy.depth = self.depth
        copy.ends = self.ends
        return copy

    def refine(self) -> None:
        """Move the depth on by one quotient, as every certification round does.

        K_D = a_D*K_{D-1} + K_{D-2} and q_D become the deeper end, and the
        end K_{D-2} is dropped.  q_D is read first unless it is cached, so
        an explicit source runs out before the handle changes.
        """
        depth, e = self.depth, self.ends
        source = self.source
        qs = source._denominators
        q = qs[depth] if len(qs) > depth else source.denominator(depth)
        a = source._terms[depth]
        if (depth - self.m) % 2:  # lo is K_{D-1} and stays; K_D is the new hi
            self.ends = _BracketEnds(e.lo_num, e.lo_den, a * e.lo_num + e.hi_num, q)
        else:  # hi is K_{D-1} and stays; K_D is the new lo
            self.ends = _BracketEnds(a * e.hi_num + e.lo_num, q, e.hi_num, e.hi_den)
        self.depth = depth + 1

    def refine_to(self, target_width: Fraction) -> None:
        """Step the depth by _STEP until the width is at most target_width.

        Both ends lie on the same side of p_m, so the width at depth D is
        q_m * |p_{D-1}/q_{D-1} - p_{D-2}/q_{D-2}|, which the determinant
        identity makes exactly q_m / (q_{D-1} * q_{D-2}).  The test is
        therefore an integer product; the ends are stepped once, to the
        final depth, and only if the depth moved.  A target_width that is
        not positive raises ValueError before anything is read.
        """
        self._settle(*_width_ratio(target_width))

    def _settle(self, num: int, den: int) -> None:
        """refine_to's search for a width num/den > 0, then one jump of the
        continuants (K_{D-2}, K_{D-1}) from D = self.depth to its result.
        The search has read every term and denominator the jump uses."""
        scaled_q, start, m = self.q * den, self.depth, self.m
        source = self.source
        denominator, qs = source.denominator, source._denominators
        depth = start
        while scaled_q > num * denominator(depth - 1) * qs[depth - 2]:
            depth += _STEP
        if depth == start:
            return
        e, terms = self.ends, source._terms  # end d is the lower iff d - m is even
        shallow, deep = (e.hi_num, e.lo_num) if (start - m) % 2 else (e.lo_num, e.hi_num)
        for d in range(start, depth):
            shallow, deep = deep, terms[d] * deep + shallow
        if (depth - m) % 2:
            self.ends = _BracketEnds(deep, qs[depth - 1], shallow, qs[depth - 2])
        else:
            self.ends = _BracketEnds(shallow, qs[depth - 2], deep, qs[depth - 1])
        self.depth = depth

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
    handle._settle(*width)
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
    if source._denominators[m] != t or m < 2:
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
