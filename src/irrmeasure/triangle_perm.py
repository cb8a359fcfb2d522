"""Triangular enumeration of pairs (j, l) and the cyclic permutation on it.

A tuple of n = k(k+1)/2 components is indexed by pairs 1 <= j <= l <= k,
linearized block by block: block j starts with (j, j) and then runs the
second index down from k to j+1.  For k = 5 the order is

  (1,1) (1,5) (1,4) (1,3) (1,2) (2,2) (2,5) (2,4) (2,3)
  (3,3) (3,5) (3,4) (4,4) (4,5) (5,5)

The permutation pi rearranges components by slot rules:
  (i,i) <- (i+1,i+1) for i < k,   (k,k) <- (1,1),
  (i,k) <- (1,i+1)   for i < k,   (i,j) <- (i+1,j+1) otherwise.
pi has order k; its cycle structure depends only on the parity of k.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from .errors import IndexOutOfRange, LengthMismatch


def triangle_size(k: int) -> int:
    _check_k(k)
    return k * (k + 1) // 2


def _check_k(k: int):
    if k < 1:
        raise IndexOutOfRange(f"k must be >= 1, got {k}")


def canonical_pairs(k: int) -> list:
    """All pairs (j, l) in linearization order."""
    _check_k(k)
    pairs = []
    for j in range(1, k + 1):
        pairs.append((j, j))
        for l in range(k, j, -1):
            pairs.append((j, l))
    return pairs


def linear_index(k: int, j: int, l: int) -> int:
    """1-based position of the pair (j, l)."""
    _check_k(k)
    if not (1 <= j <= l <= k):
        raise IndexOutOfRange(f"pair ({j}, {l}) invalid for k={k}")
    block_start = 1 + (j - 1) * k - (j - 2) * (j - 1) // 2
    if l == j:
        return block_start
    return block_start + (k - l + 1)


def _source_pair(k: int, i: int, j: int):
    """Pair whose component moves into slot (i, j) under one application."""
    if i == j:
        return (1, 1) if i == k else (i + 1, i + 1)
    if j == k:
        return (1, i + 1)
    return (i + 1, j + 1)


@lru_cache(maxsize=16)
def _sigma(k: int) -> tuple:
    return tuple(linear_index(k, *_source_pair(k, i, j)) - 1 for i, j in canonical_pairs(k))


def position_permutation(k: int) -> list:
    """sigma with out[p] = in[sigma[p]], both 0-based over the linearization."""
    return list(_sigma(k))


def apply_pi(k: int, vector):
    """One application of the permutation to a linearized vector, as a tuple.

    vector may be any iterable (tuple() returns a tuple as it is).  k < 1
    raises IndexOutOfRange and a length other than k(k+1)/2 raises
    LengthMismatch, both before the table of k is looked up, so a huge k
    builds no table.  The verifier calls this once per moment, so past
    these checks it makes one cached lookup and one C-level call.
    """
    n = triangle_size(k)
    vector = tuple(vector)
    if len(vector) != n:
        raise LengthMismatch(f"vector length {len(vector)} != {n} for k={k}")
    return _pull(k)(vector)


@lru_cache(maxsize=16)
def _pull(k: int):
    """out[p] = in[sigma[p]] for a tuple of length k(k+1)/2, in one call.

    An itemgetter of one index returns the item, not a 1-tuple, so k = 1,
    where pi is the identity, takes tuple instead.
    """
    return itemgetter(*_sigma(k)) if k > 1 else tuple


def pi_order(k: int) -> int:
    """Smallest j >= 1 with pi^j = identity: the lcm of the cycle lengths."""
    return math.lcm(*map(len, cycle_decomposition(k)))


def cycle_decomposition(k: int) -> list:
    """Cycles of pi on 1-based positions, each starting at its least element.

    Listed in the direction of the action: position p is followed by the
    position its component moves to.
    """
    sigma = position_permutation(k)
    # sigma pulls contents: slot p receives from sigma[p]; the action sends
    # position sigma[p] to p, so follow the inverse map for cycle listings.
    inverse = [0] * len(sigma)
    for p, s in enumerate(sigma):
        inverse[s] = p
    seen = [False] * len(sigma)
    cycles = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cycle = []
        p = start
        while not seen[p]:
            seen[p] = True
            cycle.append(p + 1)
            p = inverse[p]
        cycles.append(cycle)
    return cycles


def render_diagram(k: int, vector=None) -> str:
    """Text picture of the triangular arrangement.

    Column j holds block j top-down: (j, j) first, then (j, k) .. (j, j+1).
    With a vector given, its components are shown in the slots.
    """
    n = triangle_size(k)
    if vector is not None:
        vector = tuple(vector)
        if len(vector) != n:
            raise LengthMismatch(f"vector length {len(vector)} != {n} for k={k}")
    cells = {}
    for j in range(1, k + 1):
        for row in range(1, k - j + 2):
            pair = (j, j) if row == 1 else (j, k - row + 2)
            if vector is None:
                text = f"{pair[0]},{pair[1]}"
            else:
                text = str(vector[linear_index(k, *pair) - 1])
            cells[(row, j)] = text
    width = max(len(text) for text in cells.values())
    lines = []
    for row in range(1, k + 1):
        entries = [
            cells[(row, j)].rjust(width) for j in range(1, k + 1) if (row, j) in cells
        ]
        lines.append("  ".join(entries))
    return "\n".join(lines)
