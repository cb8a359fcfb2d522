"""Independent reference for the benchmark's output checks.

Nothing here imports irrmeasure or the repository's tests.  Partial
quotients come from this file's own rules (golden ratio, sqrt 2, e and a
private splitmix64 for ``seeded:`` sources), denominators from the plain
integer recurrence, and the staircase values ||q_m alpha|| from mpmath at a
precision chosen from the size of q_m.  Each value is held as an exact
rational interval, so every comparison with the program's brackets is exact.
mpmath is imported only where a value is computed, so generating inputs
from the quotient rules stays cheap.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GUARD_DIGITS = 80


class ReferenceUndecided(Exception):
    """Two reference values are too close to order at the chosen precision."""


def splitmix64_stream(seed: int):
    """Endless splitmix64 outputs from a 64-bit seed."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def seeded_quotients(seed: int, bound: int):
    """a_0 = 0, then quotients uniform in 1..bound by rejection sampling."""
    yield 0
    accept_below = (1 << 64) - (1 << 64) % bound
    for word in splitmix64_stream(seed):
        if word < accept_below:
            yield 1 + word % bound


def _constant_after(a0: int, a: int):
    yield a0
    while True:
        yield a


def _e_quotients():
    yield 2
    m = 1
    while True:
        yield 2 * (m + 1) // 3 if m % 3 == 2 else 1
        m += 1


class RefNumber:
    """One number as the reference sees it.

    Understands the five source strings the benchmark generates:
    ``periodic:[1;|1]`` (golden ratio), ``periodic:[1;|2]`` (sqrt 2),
    ``rule:e``, ``seeded:<seed>:<bound>`` and ``explicit:[a0;a1,...]``.  An
    explicit list is a rational number, so its values are exact.
    """

    def __init__(self, spec: str):
        self.spec = spec
        if spec == "periodic:[1;|1]":
            self._quotients = _constant_after(1, 1)
            self._closed_form = lambda ctx: (1 + ctx.sqrt(5)) / 2
        elif spec == "periodic:[1;|2]":
            self._quotients = _constant_after(1, 2)
            self._closed_form = lambda ctx: ctx.sqrt(2)
        elif spec == "rule:e":
            self._quotients = _e_quotients()
            self._closed_form = lambda ctx: ctx.e
        elif spec.startswith("seeded:"):
            _, seed, bound = spec.split(":")
            self._quotients = seeded_quotients(int(seed), int(bound))
            self._closed_form = None
        elif spec.startswith("explicit:[") and spec.endswith("]"):
            a0, _, rest = spec[len("explicit:[") : -1].partition(";")
            terms = [int(a0)] + [int(a) for a in rest.split(",")]
            self._quotients = iter(terms)
            self._closed_form = None
        else:
            raise ValueError(f"the reference does not know {spec!r}")
        self.q = []  # q_0, q_1, ... from q_m = a_m q_{m-1} + q_{m-2}
        self.p = []
        self._alpha = None  # (dps, mpf)
        self._dist = {}
        self._rational = None
        if spec.startswith("explicit:"):
            self.denominator(len(terms) - 1)
            self._rational = Fraction(self.p[-1], self.q[-1])

    def _extend(self):
        a = next(self._quotients, None)
        if a is None:
            raise ValueError(f"{self.spec[:40]}...: no quotient after a_{len(self.q) - 1}")
        if not self.q:
            self.p.append(a)
            self.q.append(1)
        elif len(self.q) == 1:
            self.p.append(a * self.p[0] + 1)
            self.q.append(a)
        else:
            self.p.append(a * self.p[-1] + self.p[-2])
            self.q.append(a * self.q[-1] + self.q[-2])

    def denominator(self, m: int) -> int:
        while len(self.q) <= m:
            self._extend()
        return self.q[m]

    def level(self, t: int) -> int:
        """Largest m with q_m <= t; at q_0 = q_1 = 1 the larger index wins."""
        while self.q[-1:] == [] or self.q[-1] <= t:
            self._extend()
        return bisect.bisect_right(self.q, t) - 1

    def is_denominator(self, t: int) -> bool:
        m = self.level(t)
        return self.q[m] == t

    def denominators_in(self, lo_exclusive: int, hi_inclusive: int):
        """Distinct denominators in (lo_exclusive, hi_inclusive], ascending."""
        self.level(hi_inclusive)
        start = bisect.bisect_right(self.q, lo_exclusive)
        stop = bisect.bisect_right(self.q, hi_inclusive)
        return sorted(set(self.q[start:stop]))

    def _alpha_at(self, ctx):
        if self._alpha is not None and self._alpha[0] >= ctx.dps:
            return self._alpha[1]
        import mpmath

        dps = max(ctx.dps, 2 * (self._alpha[0] if self._alpha else 0))
        work = mpmath.MPContext()
        work.dps = dps
        if self._closed_form is not None:
            value = self._closed_form(work)
        else:
            # |alpha - p_N/q_N| < 1/q_N^2, so q_N > 10^dps is ample
            m = 1
            while self.denominator(m) <= 10**dps:
                m += 1
            value = work.mpf(self.p[m]) / self.q[m]
        self._alpha = (dps, value)
        return value

    def distance(self, m: int):
        """||q_m alpha|| as an exact interval (lo, hi) of Fractions."""
        if m not in self._dist and self._rational is not None:
            x = self.denominator(m) * self._rational
            exact = abs(x - round(x))
            self._dist[m] = (exact, exact)
        if m not in self._dist:
            import mpmath

            q = self.denominator(m)
            ctx = mpmath.MPContext()
            ctx.dps = 2 * len(str(q)) + _GUARD_DIGITS
            x = self._alpha_at(ctx) * q
            value = abs(x - ctx.nint(x))
            err = Fraction(q, 10 ** (ctx.dps - 10))
            exact = _mpf_to_fraction(value)
            self._dist[m] = (exact - err, exact + err)
        return self._dist[m]

    def psi(self, t: int):
        """Reference staircase value at t: the interval of ||q_m alpha||."""
        return self.distance(self.level(t))


def _mpf_to_fraction(x) -> Fraction:
    man, exp = x.man_exp
    man = int(man)
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


def intersects(interval, lo, hi) -> bool:
    return interval[0] <= hi and lo <= interval[1]


# ---------------------------------------------------------------- tuples


def order_at(members, t: int) -> tuple:
    """Labels by strictly decreasing reference value at t.

    members is a sequence of (label, RefNumber).  Raises ReferenceUndecided
    if two neighbouring intervals overlap.
    """
    ranked = sorted(((ref.psi(t), label) for label, ref in members), reverse=True)
    for (upper, a), (lower, b) in zip(ranked, ranked[1:]):
        if lower[1] >= upper[0]:
            raise ReferenceUndecided(f"t={t}: {a} and {b} overlap")
    return tuple(label for _, label in ranked)


def trace_start(members, t0: int) -> int:
    """A trace starts at the largest q_2 among members, or t0 if later."""
    return max([t0] + [ref.denominator(2) for _, ref in members])


def merged_events(members, lo_exclusive: int, hi_inclusive: int):
    """[(t, jumping labels in member order)] for every shared jump in range."""
    owners = {}
    for label, ref in members:
        for t in ref.denominators_in(lo_exclusive, hi_inclusive):
            owners.setdefault(t, []).append(label)
    return [(t, tuple(owners[t])) for t in sorted(owners)]


def expected_moments(members, start: int, count: int, horizon_hint: int):
    """First `count` change moments after start, with the events examined.

    Returns (v0, [(t, vector, jumping)], events_examined).  Events are
    generated in windows, doubling the window's upper end until enough
    moments have been found.
    """
    v0 = order_at(members, start)
    current = v0
    moments = []
    examined = 0
    lo, hi = start, max(horizon_hint, start + 1)
    while len(moments) < count:
        for t, jumping in merged_events(members, lo, hi):
            examined += 1
            vector = order_at(members, t)
            if vector != current:
                moments.append((t, vector, jumping))
                current = vector
                if len(moments) == count:
                    break
        lo, hi = hi, 2 * hi
    return v0, moments, examined


def count_sign_changes(members, start: int, horizon: int):
    """Reference order changes of a pair over events in (start, horizon]."""
    current = order_at(members, start)
    changes = 0
    events = merged_events(members, start, horizon)
    for t, _ in events:
        vector = order_at(members, t)
        if vector != current:
            changes += 1
            current = vector
    return changes, len(events)


# ---------------------------------------------------------------- laws


def triangle_slots(k: int) -> list:
    """Pairs (j, l), 1 <= j <= l <= k, block by block: (j,j), (j,k) .. (j,j+1)."""
    slots = []
    for j in range(1, k + 1):
        slots.append((j, j))
        slots.extend((j, l) for l in range(k, j, -1))
    return slots


def pi_step(k: int, vector) -> tuple:
    """One application of the cyclic permutation by its slot rules."""
    slots = triangle_slots(k)
    where = {pair: pos for pos, pair in enumerate(slots)}

    def origin(i, j):
        if i == j:
            return (i + 1, i + 1) if i < k else (1, 1)
        if j == k:
            return (1, i + 1)
        return (i + 1, j + 1)

    return tuple(vector[where[origin(i, j)]] for (i, j) in slots)


def law_verdicts(v0, moments, k: int) -> dict:
    """Reference verdicts {"i": (status, t), "vi": (status, t)} on a trace.

    moments is a list of (t, vector, jumping).  t is the first failing
    moment, or None.
    """
    verdicts = {"i": ("pass", None)}
    for t, _, jumping in moments:
        if len(set(jumping)) != k:
            verdicts["i"] = ("fail", t)
            break
    if len(v0) != k * (k + 1) // 2:
        verdicts["vi"] = ("inconclusive", None)
        return verdicts
    verdicts["vi"] = ("pass", None)
    previous = tuple(v0)
    for t, vector, _ in moments:
        if tuple(vector) != pi_step(k, previous):
            verdicts["vi"] = ("fail", t)
            break
        previous = tuple(vector)
    return verdicts


# ---------------------------------------------------------------- synthesis


def continuant_denominators(terms) -> list:
    """q_0, q_1, ... of [a_0; a_1, ...] from the plain recurrence."""
    q_before, q = 0, 1
    out = [q]
    for a in terms[1:]:
        q_before, q = q, a * q + q_before
        out.append(q)
    return out


def synthesis_problems(events, quotients: dict, event_values) -> list:
    """Everything wrong with a synthesized tuple, as readable strings.

    events is the schedule (tuples of labels), quotients maps label to its
    list of partial quotients, event_values the realised denominators.
    """
    problems = []
    if len(event_values) != len(events):
        return [f"{len(event_values)} event values for {len(events)} events"]
    for label, terms in quotients.items():
        if any(a < 1 for a in terms[1:]):
            problems.append(f"{label}: a quotient below 1")
    denominators = {
        label: set(continuant_denominators(terms)) for label, terms in quotients.items()
    }
    for index, (event, value) in enumerate(zip(events, event_values)):
        owners = {label for label, qs in denominators.items() if value in qs}
        if owners != set(event):
            problems.append(f"event {index}: value is a denominator of {sorted(owners)}")
    product = 1
    for index, value in enumerate(event_values):
        if index and value <= event_values[index - 1]:
            problems.append(f"event {index}: value not above the previous one")
        if math.gcd(value, product) != 1:
            problems.append(f"event {index}: value shares a factor with an earlier one")
        product *= value
    return problems
