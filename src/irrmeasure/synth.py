"""Construction of quotient lists realizing scheduled denominator sharing.

A schedule is a sequence of events, each naming the labels whose staircases
must jump together there.  A member with state (q, q_prev) can reach any
next denominator Q with Q ≡ q_prev (mod q) and Q >= q + q_prev, by the
quotient a = (Q - q_prev) / q.  Because consecutive denominators are
coprime, each member contributes one congruence with unit-gcd residue;
events are realized by merging these congruences and picking the smallest
admissible solution.

On an extremal schedule the merged modulus is always the full product of
the event's k moduli, so event values grow like a k-step Fibonacci
sequence.  The moduli are the last k event values.  Any two of them have
distinct residues i and j, and member i.j jumps at both with no jump in
between, so they are consecutive denominators of one member, hence
coprime; no coprimality invariant can shrink their product.  Bit lengths
grow by about 1.62, 1.84 and 1.93 per event for k = 2, 3 and 4, and a
k = 5 loop needs at least 26 events, about 1.6e8 bits.

Every division in synthesize is by an owned denominator that is used
again: each event value is a modulus at the next k events and is tested
for coprimality at every later one.  CPython divides in quadratic time, so
above _BARRETT_BITS a _Divisors helper, scoped to one call, gives each such
denominator a Newton reciprocal at its first longer dividend and reduces
by Barrett's method, which costs two multiplications per block (Brent
and Zimmermann, Modern Computer Arithmetic, chapters 1 and 2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .cf_engine import ExplicitSource
from .errors import InfeasibleSchedule, QuotientUnderflow, required


@dataclass(frozen=True)
class JumpSchedule:
    """Ordered events; each event is the tuple of labels jumping there."""

    events: tuple
    k: int | None = None

    def __post_init__(self):
        if not self.events:
            raise ValueError("schedule needs at least one event")
        for event in self.events:
            if not event:
                raise ValueError("every event needs at least one label")
            if len(set(event)) != len(event):
                raise ValueError("labels within an event must be distinct")

    @property
    def labels(self) -> tuple:
        seen = []
        for event in self.events:
            for label in sorted(event):
                if label not in seen:
                    seen.append(label)
        return tuple(seen)

    def to_document(self) -> dict:
        return {"k": self.k, "events": [sorted(event) for event in self.events]}

    @classmethod
    def from_document(cls, doc: dict) -> "JumpSchedule":
        if not isinstance(doc, dict):
            raise ValueError(f"schedule must be an object, not {type(doc).__name__}")
        events = required(doc, "events", "schedule")
        if not isinstance(events, list):
            raise ValueError(f"schedule events must be a list, not {type(events).__name__}")
        for event in events:
            if not isinstance(event, list):
                raise ValueError(f"schedule event must be a list, not {type(event).__name__}")
            for label in event:
                if not isinstance(label, str):
                    raise ValueError(f"schedule label {label!r} is not a string")
        k = doc.get("k")
        if k is not None and type(k) is not int:
            raise ValueError(f"schedule k={k!r} is neither an integer nor null")
        return cls(tuple(tuple(event) for event in events), k)


def extremal_schedule(k: int, cycles: int) -> JumpSchedule:
    """The periodic calendar with the largest admissible tuple for k.

    Labels are "i.j" for the triangular pairs 1 <= i <= j <= k.  Event e
    carries the diagonal label of the residue c = ((e-1) mod k) + 1 plus
    every off-diagonal label containing c: exactly k labels per event.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    events = []
    for e in range(1, k * cycles + 1):
        c = (e - 1) % k + 1
        labels = [f"{c}.{c}"]
        labels += [f"{i}.{c}" for i in range(1, c)]
        labels += [f"{c}.{j}" for j in range(c + 1, k + 1)]
        events.append(tuple(labels))
    return JumpSchedule(tuple(events), k=k)


# Divisor bit length from which reductions go through a reciprocal.  On
# CPython 3.11 a Barrett block beats builtin divmod from about 3500 bits on
# a fast host, but only from about 16000 bits in a shared host's slow
# phases, where products slow more than divisions; synth_extremal rounds
# ran as fast at 8000 as at 4000 when fast, and as at 16000 when slow
# (BENCH_23).
_BARRETT_BITS = 8000


def _reciprocal(d):
    """An integer v <= 4**n // d, n = d.bit_length(), a few units below it.

    Newton's iteration for 1/d from the reciprocal of d's top h = n/2 + 8
    bits: y = v_h 2^s with s = n - h, e = 4^n - d y, v = y + y e / 4^n.  In
    exact arithmetic 4^n/d - v = (4^n/d)(1 - d y / 4^n)^2 >= 0, and every
    shift here floors, so v never exceeds 4^n/d; y's relative error below
    2^-(h-2) leaves v within a few units of it.
    """
    n = d.bit_length()
    if n < _BARRETT_BITS:
        return (1 << 2 * n) // d
    h = n // 2 + 8
    s = n - h
    v = _reciprocal(d >> s)
    e = (1 << 2 * n) - (d * v << s)
    return (v << s) + (v * (e >> (n - 1)) >> (h + 1))


class _Divisors:
    """Exact divmod by the denominators of one synthesize or merge call.

    A divisor d of n >= _BARRETT_BITS bits gets v = _reciprocal(d) at its
    first use by a dividend longer than n bits, kept until the helper goes;
    a shorter one is below 2d and needs at most one subtraction.  A longer
    dividend is split into n-bit blocks from the top, with the first block
    up to 2n bits.  Each block y < 2^(2n) gets the Barrett quotient
    ((y >> (n-1)) v) >> (n+1), which is at most y // d since
    v <= 4^n // d, and is raised by one while the remainder is >= d.  A
    negative dividend is divided as -x and the result mirrored to floor
    division.  Smaller divisors use builtin divmod.
    """

    def __init__(self):
        self._reciprocals = {}

    def divmod(self, x, d):
        n = d.bit_length()
        if n < _BARRETT_BITS:
            return divmod(x, d)
        if x < 0:
            q, r = self.divmod(-x, d)
            return (-q - 1, d - r) if r else (-q, 0)
        if x.bit_length() <= n:
            return (0, x) if x < d else (1, x - d)
        v = self._reciprocals.get(d)
        if v is None:
            v = self._reciprocals[d] = _reciprocal(d)
        shift = max(0, x.bit_length() - n - 1) // n * n
        mask = (1 << n) - 1
        y, q = x >> shift, 0
        while True:
            block = ((y >> (n - 1)) * v) >> (n + 1)
            r = y - block * d
            while r >= d:
                block += 1
                r -= d
            q = (q << n) + block
            if not shift:
                return q, r
            shift -= n
            y = (r << n) | (x >> shift & mask)

    def mod(self, x, d):
        return self.divmod(x, d)[1]


def merge_congruences(pairs, *, divisors=None, steps=None):
    """Smallest representation (r, M) of a simultaneous congruence system.

    pairs holds (residue, modulus) entries; non-coprime moduli are merged
    through their gcd g and the inverse of M/g modulo modulus/g.  Raises
    InfeasibleSchedule on contradiction.

    Each step tries pow(M mod modulus, -1, modulus) first.  It raises
    ValueError exactly when g > 1; otherwise g = 1 and the inverse is the
    one the gcd route takes, so (r, M) is the same.  Only then is g
    computed and the conflict tested, against the same r and M, so the
    message is the same too.  In
    synthesize g > 1 takes prefix denominators sharing a factor, or one
    modulus twice, since each event value is coprime to all owned ones.

    synthesize passes its call-scoped _Divisors, and a list that receives
    each step's digits: step j merges x = residue_j (mod q_j) into
    x = r (mod m), with g_j = gcd(m, q_j) and step_j = q_j / g_j; its digit
    t_j in [0, step_j) makes r_j = r + m t_j the solution modulo
    P_j = m step_j, and steps[j] is (r_j, m / g_j, t_j, step_j).
    """
    divisors = divisors or _Divisors()
    steps = [] if steps is None else steps
    r, m = 0, 1
    for residue, modulus in pairs:
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        residue %= modulus
        try:
            inverse = pow(divisors.mod(m, modulus), -1, modulus)
        except ValueError:
            g = math.gcd(m, modulus)
            if (residue - r) % g:
                raise InfeasibleSchedule(
                    f"congruences x = {r} (mod {m}) and x = {residue} (mod {modulus}) conflict"
                ) from None
            cofactor, step = m // g, modulus // g
            digit = (residue - r) // g * pow(cofactor, -1, step) % step
        else:
            cofactor, step = m, modulus
            digit = divisors.mod(divisors.mod(residue - r, modulus) * inverse, modulus)
        r += m * digit
        m *= step
        steps.append((r, cofactor, digit, step))
    return r, m


def _primorial(bound):
    """Product of the primes below bound, by the sieve of Eratosthenes."""
    is_prime = bytearray([1]) * bound
    is_prime[:2] = bytes(2)
    for n in range(2, math.isqrt(bound - 1) + 1):
        if is_prime[n]:
            is_prime[n * n :: n] = bytes(len(range(n * n, bound, n)))
    return math.prod(n for n in range(bound) if is_prime[n])


_SMALL_PRIME_BOUND = 2000
_SMALL_PRIME_PRODUCT = _primorial(_SMALL_PRIME_BOUND)


def _solve_event(congruences, lower_bound, search_bound, owned, small, divisors):
    """Least Q >= lower_bound satisfying all congruences, coprime to every owned q.

    owned lists every denominator any label already owns.  Keeping each
    event value coprime to all of them means no two values ever share a
    factor, so later merges can only conflict when two members carry the
    same modulus, which is the genuinely unrealizable situation.  Such a
    solution always exists: each member congruence already forces the value
    coprime to that member's modulus, and stepping by the merged modulus
    escapes any prime outside it.

    small, the product of the primes below 2000 dividing some owned q,
    rejects most candidates, and only ones sharing a prime with an owned q;
    it settles each owned q < 2000, whose primes all divide it.  A survivor
    is tested against each larger owned q but the event's moduli: a
    member's congruence Q = q_prev (mod q) gives gcd(Q, q) =
    gcd(q_prev, q) = 1, as consecutive convergent denominators are coprime,
    user prefixes included, since they are ExplicitSource terms.  Q is
    coprime to every owned q exactly when it is coprime to their product,
    so these tests accept the candidates one gcd against that product
    would, in the same order: the same least Q comes back and search_bound
    counts the same candidates; each test reduces Q mod q through divisors.

    Returns Q, the merge's steps and u = (Q - r) / M for the merged (r, M),
    counted along the search rather than divided out.
    """
    steps = []
    r, m = merge_congruences(congruences, divisors=divisors, steps=steps)
    u = 0
    if r < lower_bound:
        u = (lower_bound - r + m - 1) // m
        r += u * m
    moduli = {modulus for _, modulus in congruences}
    others = [q for q in owned if q >= _SMALL_PRIME_BOUND and q not in moduli]
    for _ in range(search_bound):
        if math.gcd(r, small) == 1 and all(
            math.gcd(q, divisors.mod(r, q)) == 1 for q in others
        ):
            return r, steps, u
        r += m
        u += 1
    raise InfeasibleSchedule(
        f"no value coprime to the existing pool within {search_bound} steps"
    )


def _member_quotients(members, steps, u, divisors):
    """Each member's quotient (Q - q_prev) / q, read off the merge's digits.

    members lists the event's (q, q_prev) in merge order; steps and u come
    from _solve_event.  Later steps only add multiples of P_j, so
    Q = r_j + P_j U_j with U_k = u and, by r_j = r_{j-1} + P_{j-1} t_j and
    P_j = P_{j-1} step_j, U_{j-1} = t_j + step_j U_j.  As P_j / q_j is the
    cofactor P_{j-1} / g_j,

        (Q - q_prev_j) / q_j = (r_j - q_prev_j) / q_j + cofactor_j U_j,

    exactly, since r_j = q_prev_j (mod q_j).  The division is of r_j < P_j:
    r_1 is q_prev mod q, and only the last member's r_k is as large as Q,
    so it alone still divides a full-size number, through divisors.
    """
    us = [u]
    for _, _, digit, step in steps[:0:-1]:
        us.append(digit + step * us[-1])
    return [
        divisors.divmod(r - q_prev, q)[0] + cofactor * u
        for (q, q_prev), (r, cofactor, _, _), u in zip(members, steps, us[::-1])
    ]


@dataclass(frozen=True)
class EventCertificate:
    """Per-member congruence witness for one realized event."""

    label: str
    modulus: int
    residue: int
    quotient: int
    cf_index: int


@dataclass(frozen=True)
class SynthesisResult:
    schedule: JumpSchedule
    quotients: dict  # label -> tuple of partial quotients
    event_values: tuple  # realized shared denominators, strictly increasing
    certificates: tuple  # tuple per event of EventCertificate

    def sources(self) -> dict:
        return {label: ExplicitSource(terms) for label, terms in self.quotients.items()}

    @property
    def certified_horizon(self) -> int:
        """The last event value whose order needs no padded quotient.

        Number the N events from 1.  At event e each member's ψ handle
        starts from its quotients up to a_{m+2}, for its level
        q_m <= t < q_{m+1}, and a_{m+2} = (q_{m+2} - q_m) / q_{m+1} is fixed
        by the member's second jump after t.  The diagonal member c.c that
        jumps at e jumps once per cycle, so that is event e + 2k.  Every
        other member last jumped at or before e, and each member's two
        consecutive gaps sum to at most 2k, so its a_{m+2} is fixed by event
        e + 2k or earlier.  The last event whose handles start from
        scheduled quotients only is therefore N - 2k, with the value
        event_values[-(2k+1)].  A comparison refined deeper may still read
        padding.  Needs the schedule's k and more than 2k events.
        """
        k = self.schedule.k
        if k is None or len(self.event_values) <= 2 * k:
            raise ValueError(
                "a certified horizon needs an extremal schedule of more than 2k events"
            )
        return self.event_values[-(2 * k + 1)]

    def padded_sources(self, extra: int = 40) -> dict:
        """Sources extended with `extra` quotients 1 for bracket refinement.

        The scheduled coincidences live in the prefix and are unaffected;
        the tail only lets comparisons refine deep enough to certify.
        """
        return {
            label: ExplicitSource(list(terms) + [1] * extra)
            for label, terms in self.quotients.items()
        }

    def to_document(self) -> dict:
        return {
            "schedule": self.schedule.to_document(),
            "quotients": {label: list(terms) for label, terms in self.quotients.items()},
            "event_values": [str(v) for v in self.event_values],
            "certificates": [
                [
                    {
                        "label": c.label,
                        "modulus": str(c.modulus),
                        "residue": str(c.residue),
                        "quotient": str(c.quotient),
                        "cf_index": c.cf_index,
                    }
                    for c in certs
                ]
                for certs in self.certificates
            ],
        }


def default_prefixes(labels):
    """Distinct starting quotients [0, i+1] so the numbers never collide."""
    return {label: [0, i + 1] for i, label in enumerate(labels)}


def synthesize(
    schedule: JumpSchedule,
    search_bound: int = 10**6,
    prefixes: dict | None = None,
) -> SynthesisResult:
    """Realize a schedule as explicit quotient lists with exact coincidences.

    Each event's shared denominator is the smallest solution of the
    members' congruences that exceeds the previous event, is coprime to
    every denominator already owned, and keeps every derived quotient
    >= 1.  Members absent from an event simply do not advance, so their
    next denominator lands beyond it automatically.  A negative
    search_bound is refused before any work.
    """
    if search_bound < 0:
        raise ValueError(f"search_bound must be >= 0, got {search_bound}")
    labels = schedule.labels
    if prefixes is None:
        prefixes = default_prefixes(labels)
    quotients = {}
    states = {}
    owned = []
    for label in labels:
        terms = list(prefixes[label])
        if len(terms) < 2:
            raise ValueError("each prefix needs at least a_0 and a_1")
        source = ExplicitSource(terms)
        quotients[label] = terms
        qs = [source.denominator(i) for i in range(len(terms))]
        states[label] = (qs[-1], qs[-2], len(terms) - 1)
        owned += qs
    small = math.lcm(*(math.gcd(q, _SMALL_PRIME_PRODUCT) for q in owned))
    divisors = _Divisors()
    event_values = []
    certificates = []
    last_q = 0
    for event in schedule.events:
        members = [states[label][:2] for label in sorted(event)]
        congruences = [(q_prev % q, q) for q, q_prev in members]
        lower = max([last_q + 1] + [q + q_prev for q, q_prev in members])
        value, steps, u = _solve_event(
            congruences, lower, search_bound, owned, small, divisors
        )
        certs = []
        quotients_now = _member_quotients(members, steps, u, divisors)
        for label, quotient in zip(sorted(event), quotients_now):
            q, q_prev, m = states[label]
            if quotient < 1:
                raise QuotientUnderflow(
                    f"derived quotient {quotient} for {label} at Q={value}"
                )
            quotients[label].append(quotient)
            states[label] = (value, q, m + 1)
            certs.append(EventCertificate(label, q, q_prev % q, quotient, m + 1))
        event_values.append(value)
        certificates.append(tuple(certs))
        owned.append(value)
        small = math.lcm(small, math.gcd(value, _SMALL_PRIME_PRODUCT))
        last_q = value
    return SynthesisResult(
        schedule,
        {label: tuple(terms) for label, terms in quotients.items()},
        tuple(event_values),
        tuple(certificates),
    )


def replay_check(result: SynthesisResult) -> bool:
    """Re-derive denominators from the emitted quotients and check events.

    Walks the plain recurrence, independently of any cached state, and
    confirms that each event value is a denominator of exactly the
    scheduled members at the recorded index.
    """
    denominators = {}
    for label, terms in result.quotients.items():
        q_prev, q = 0, 1
        qs = [q]
        for a in terms[1:]:
            q, q_prev = a * q + q_prev, q
            qs.append(q)
        denominators[label] = qs
    labels = result.schedule.labels
    for position, (event, value) in enumerate(
        zip(result.schedule.events, result.event_values)
    ):
        for label in labels:
            hit = value in denominators[label]
            if (label in event) != hit:
                return False
        for cert in result.certificates[position]:
            if denominators[cert.label][cert.cf_index] != value:
                return False
    return True


def _extremal_preset(text: str) -> JumpSchedule:
    form = "expected extremal:k=<int>:cycles=<int>"
    keys = ("k", "cycles")
    params = {}
    for part in text[len("extremal:") :].split(":"):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"entry {part!r} is not key=value in {text!r}; {form}")
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {text!r}; {form}")
        if key in params:
            raise ValueError(f"duplicate key {key!r} in {text!r}; {form}")
        try:
            params[key] = int(value)
        except ValueError:
            raise ValueError(
                f"{key}={value!r} is not an integer in {text!r}; {form}"
            ) from None
    for key in keys:
        if key not in params:
            raise ValueError(f"missing key {key!r} in {text!r}; {form}")
    return extremal_schedule(params["k"], params["cycles"])


def load_schedule(text: str) -> JumpSchedule:
    """Parse a schedule from JSON or the extremal:k=..:cycles=.. preset form."""
    text = text.strip()
    if text.startswith("extremal:"):
        return _extremal_preset(text)
    return JumpSchedule.from_document(json.loads(text))
