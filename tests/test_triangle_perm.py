"""Triangular indexing and the cyclic permutation on pair slots."""

import pytest

from _oracle import canonical_predecessor, inverse_index
from irrmeasure.errors import IndexOutOfRange, LengthMismatch
from irrmeasure.triangle_perm import (
    apply_pi,
    canonical_pairs,
    cycle_decomposition,
    linear_index,
    pi_order,
    position_permutation,
    render_diagram,
    triangle_size,
)


def test_canonical_pairs_k5():
    assert canonical_pairs(5) == [
        (1, 1), (1, 5), (1, 4), (1, 3), (1, 2),
        (2, 2), (2, 5), (2, 4), (2, 3),
        (3, 3), (3, 5), (3, 4),
        (4, 4), (4, 5),
        (5, 5),
    ]


def test_canonical_pairs_small():
    assert canonical_pairs(1) == [(1, 1)]
    assert canonical_pairs(2) == [(1, 1), (1, 2), (2, 2)]
    assert canonical_pairs(3) == [(1, 1), (1, 3), (1, 2), (2, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("k", range(2, 17))
def test_linear_inverse_bijection(k):
    pairs = canonical_pairs(k)
    assert len(pairs) == triangle_size(k)
    for position, (j, l) in enumerate(pairs, start=1):
        assert linear_index(k, j, l) == position
        assert inverse_index(k, position) == (j, l)


def test_index_bounds_rejected():
    with pytest.raises(IndexOutOfRange):
        linear_index(4, 3, 2)
    with pytest.raises(IndexOutOfRange):
        linear_index(4, 0, 2)
    with pytest.raises(IndexOutOfRange):
        inverse_index(4, 11)
    with pytest.raises(IndexOutOfRange):
        inverse_index(4, 0)
    with pytest.raises(IndexOutOfRange):
        triangle_size(0)


def test_apply_pi_k5_component_mapping():
    # Label each input component by its slot, then check where pi puts it.
    u = {(j, l): f"u{j}{l}" for (j, l) in canonical_pairs(5)}
    vector = tuple(u[pair] for pair in canonical_pairs(5))
    assert apply_pi(5, vector) == (
        u[2, 2], u[1, 2], u[2, 5], u[2, 4], u[2, 3],
        u[3, 3], u[1, 3], u[3, 5], u[3, 4],
        u[4, 4], u[1, 4], u[4, 5],
        u[5, 5], u[1, 5],
        u[1, 1],
    )


def test_apply_pi_k2():
    assert apply_pi(2, ("A", "B", "C")) == ("C", "B", "A")


def test_apply_pi_rejects_wrong_length():
    with pytest.raises(LengthMismatch):
        apply_pi(3, (1, 2, 3, 4))


def slot_by_slot_pi(k, vector):
    """pi read slot by slot off position_permutation: out[p] = in[sigma[p]]."""
    vector = list(vector)
    return tuple(vector[s] for s in position_permutation(k))


@pytest.mark.parametrize("k", range(1, 8))
def test_apply_pi_reads_tuples_lists_and_generators_alike(k):
    vector = tuple(f"x{i}" for i in range(triangle_size(k)))
    expected = slot_by_slot_pi(k, vector)
    for form in (vector, list(vector), iter(vector), (x for x in vector)):
        got = apply_pi(k, form)
        assert type(got) is tuple and got == expected


@pytest.mark.parametrize("k", [1, 2, 5])
def test_apply_pi_refuses_a_short_or_a_long_vector(k):
    n = triangle_size(k)
    for length in (n - 1, n + 1):
        with pytest.raises(LengthMismatch, match=f"^vector length {length} != {n} for k={k}$"):
            apply_pi(k, range(length))


@pytest.mark.parametrize("k", [0, -1, -7])
def test_apply_pi_refuses_k_below_1_whatever_the_vector(k):
    for vector in ((), (1,), range(3)):
        with pytest.raises(IndexOutOfRange, match=f"^k must be >= 1, got {k}$"):
            apply_pi(k, vector)


def test_apply_pi_refuses_a_short_vector_at_a_huge_k_before_any_table():
    with pytest.raises(LengthMismatch):
        apply_pi(2**64, (1, 2, 3))


@pytest.mark.parametrize("k", range(2, 17))
def test_pi_has_order_k(k):
    assert pi_order(k) == k
    start = tuple(range(triangle_size(k)))
    current = start
    for _ in range(k - 1):
        current = apply_pi(k, current)
        assert current != start
    assert apply_pi(k, current) == start


@pytest.mark.parametrize("k", range(2, 17))
def test_cycle_counts(k):
    cycles = cycle_decomposition(k)
    expected = (k + 1) // 2 if k % 2 else (k + 2) // 2
    assert len(cycles) == expected
    assert sorted(p for cycle in cycles for p in cycle) == list(
        range(1, triangle_size(k) + 1)
    )


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_even_k_element_orders(k):
    # Cycle length = order of each component's orbit.  For even k the slots
    # with second-minus-first index equal to k/2 close up twice as fast.
    length_at = {}
    for cycle in cycle_decomposition(k):
        for position in cycle:
            length_at[position] = len(cycle)
    for position, (j, l) in enumerate(canonical_pairs(k), start=1):
        expected = k // 2 if l - j == k // 2 else k
        assert length_at[position] == expected


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
def test_odd_k_element_orders(k):
    for cycle in cycle_decomposition(k):
        assert len(cycle) == k


def test_diagonal_forms_single_cycle():
    for k in range(2, 9):
        diagonal = {linear_index(k, i, i) for i in range(1, k + 1)}
        matching = [c for c in cycle_decomposition(k) if set(c) == diagonal]
        assert len(matching) == 1


def test_canonical_predecessor_k3_explicit():
    assert canonical_predecessor(3) == [
        (3, 3), (2, 3), (1, 3), (1, 1), (1, 2), (2, 2),
    ]


@pytest.mark.parametrize("k", range(3, 13))
def test_canonical_predecessor_properties(k):
    canonical = tuple(canonical_pairs(k))
    w = tuple(canonical_predecessor(k))
    assert w != canonical
    assert apply_pi(k, w) == canonical
    power = canonical
    for _ in range(k - 1):
        power = apply_pi(k, power)
    assert w == power


def test_render_diagram_k3():
    assert render_diagram(3) == "1,1  2,2  3,3\n1,3  2,3\n1,2"


def test_render_diagram_with_vector():
    text = render_diagram(2, ("x", "y", "z"))
    assert text == "x  z\ny"
    with pytest.raises(LengthMismatch):
        render_diagram(2, ("x", "y"))


def test_position_permutation_is_a_fresh_list_each_call():
    # apply_pi reads a table kept per k; a caller's list is its own
    sigma = position_permutation(4)
    assert apply_pi(4, range(10)) == tuple(sigma)
    sigma.reverse()
    assert position_permutation(4) != sigma
    assert apply_pi(4, range(10)) == tuple(position_permutation(4))
    with pytest.raises(IndexOutOfRange):
        apply_pi(0, ())
