import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from bvgraph.graded import (EVEN, ODD, SuperSpace, koszul_sign, perm_parity,
                            sort_indices_with_sign, sparse_sum, tensor_space)
from bvgraph.sampling import monomial_keys, rational
from bvgraph.superpoly import merge_keys
from oracles import average_tensor, permute_tensor, symmetrize_tensor


def test_koszul_sign_identity():
    assert koszul_sign((0, 1, 2), (ODD, ODD, ODD)) == 1


def test_koszul_sign_odd_swap():
    assert koszul_sign((1, 0), (ODD, ODD)) == -1


def test_koszul_sign_mixed_swap():
    assert koszul_sign((1, 0), (EVEN, ODD)) == 1
    assert koszul_sign((1, 0), (ODD, EVEN)) == 1


def test_koszul_sign_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign((0, 1), (ODD,))


def test_koszul_reduces_to_sign_for_all_odd():
    for order in permutations(range(4)):
        assert koszul_sign(order, (ODD,) * 4) == perm_parity(order)


def koszul_sort(parities, seq):
    """Stable sort of seq with the koszul_sign of the sort; (None, 0) on an odd square."""
    if any(parities[v] and seq.count(v) > 1 for v in seq):
        return None, 0
    order = sorted(range(len(seq)), key=seq.__getitem__)
    return (tuple(seq[i] for i in order),
            koszul_sign(order, [parities[v] for v in seq]))


def test_sort_indices_with_sign_is_koszul_sign():
    w = SuperSpace(("x1", "t1", "x2", "t2"), (EVEN, ODD, EVEN, ODD))
    seqs = [seq for n in range(6) for seq in product(range(4), repeat=n)]
    assert len(seqs) == 1365
    for seq in seqs:
        assert sort_indices_with_sign(w, seq) == koszul_sort(w.parities, seq)


def test_merge_keys_is_koszul_sign():
    w = SuperSpace(("x1", "t1", "x2", "t2"), (EVEN, ODD, EVEN, ODD))
    keys = [key for d in range(4) for key in monomial_keys(w, d)]
    assert len(keys) == 25
    for k1, k2 in product(keys, repeat=2):
        assert merge_keys(w, k1, k2) == koszul_sort(w.parities, k1 + k2)


@st.composite
def graded_permutations(draw):
    """(order, parities): a random permutation of 0..n-1 and mixed parities."""
    n = draw(st.integers(2, 8))
    parities = draw(st.lists(st.sampled_from((EVEN, ODD)), min_size=n, max_size=n)
                    .filter(lambda ps: EVEN in ps and ODD in ps))
    return draw(st.permutations(range(n))), parities


@settings(max_examples=200, deadline=None)
@given(graded_permutations())
def test_koszul_sign_is_a_product_of_adjacent_transposition_signs(case):
    # sort the arrangement back by adjacent swaps; swapping symbols a and b
    # costs (-1)^{|a||b|}
    order, parities = case
    seq, sign = list(order), 1
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                if parities[seq[i]] and parities[seq[i + 1]]:
                    sign = -sign
    assert koszul_sign(order, parities) == sign


W22 = SuperSpace(("x1", "t1", "x2", "t2"), (EVEN, ODD, EVEN, ODD))
W22_KEYS = [key for d in range(4) for key in monomial_keys(W22, d)]


def signed_merge(left, right):
    """merge_keys on (key, sign) pairs; (None, 0) absorbs."""
    if left[0] is None or right[0] is None:
        return None, 0
    key, sign = merge_keys(W22, left[0], right[0])
    return key, sign * left[1] * right[1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(W22_KEYS), min_size=3, max_size=3))
def test_merge_keys_is_associative_with_signs(keys):
    a, b, c = ((key, 1) for key in keys)
    assert (signed_merge(signed_merge(a, b), c)
            == signed_merge(a, signed_merge(b, c)))


def test_koszul_trivial_for_all_even():
    for order in permutations(range(4)):
        assert koszul_sign(order, (EVEN,) * 4) == 1


def test_koszul_homomorphism_all_odd():
    rng = random.Random(7)
    for _ in range(30):
        a = list(range(5)); rng.shuffle(a)
        b = list(range(5)); rng.shuffle(b)
        ab = [a[b[i]] for i in range(5)]
        assert (koszul_sign(ab, (ODD,) * 5)
                == koszul_sign(a, (ODD,) * 5) * koszul_sign(b, (ODD,) * 5))


def test_tensor_space_dimensions():
    e = SuperSpace(("a",), (EVEN,))
    o = SuperSpace(("b",), (ODD,))
    eo = SuperSpace(("a", "b"), (EVEN, ODD))
    assert tensor_space(e, e).dim() == (1, 0)
    assert tensor_space(eo, eo).dim() == (2, 2)
    assert tensor_space(o, o).dim() == (1, 0)


def test_tensor_space_parity_table_exhaustive():
    for pa, pb in product((EVEN, ODD), repeat=2):
        a = SuperSpace(("a",), (pa,))
        b = SuperSpace(("b",), (pb,))
        assert tensor_space(a, b).parities == ((pa + pb) % 2,)


def test_symmetrize_even_square():
    w = SuperSpace(("x",), (EVEN,))
    t = {(0, 0): Fraction(1)}
    assert symmetrize_tensor(w, t, 2) == {(0, 0): Fraction(2)}


def test_symmetrize_odd_square_vanishes():
    w = SuperSpace(("xi",), (ODD,))
    t = {(0, 0): Fraction(1)}
    assert symmetrize_tensor(w, t, 2) == {}


def test_average_after_symmetrize_recovers_symmetric_input():
    # pi_n o i_n = id on symmetric tensors, random rationals, n <= 6 would be
    # slow at rank 6 over big spaces; the spec asks ranks up to 6 on small ones.
    rng = random.Random(3)
    w = SuperSpace(("x", "y", "xi"), (EVEN, EVEN, ODD))
    for rank in range(1, 5):
        raw = {}
        for _ in range(4):
            key = tuple(rng.randrange(3) for _ in range(rank))
            raw[key] = rational(rng, zero_ok=False)
        sym = average_tensor(w, symmetrize_tensor(w, raw, rank), rank)
        twice = average_tensor(w, symmetrize_tensor(
            w, symmetrize_tensor(w, raw, rank), rank), rank)
        scaled = {k: v * factorial(rank) for k, v in sym.items()}
        assert twice == scaled


def test_pi_i_identity_rank_up_to_6():
    rng = random.Random(11)
    w = SuperSpace(("x", "xi"), (EVEN, ODD))
    for rank in (2, 3, 4, 5, 6):
        raw = {tuple(rng.randrange(2) for _ in range(rank)): rational(rng, zero_ok=False)
               for _ in range(3)}
        sym = symmetrize_tensor(w, raw, rank)
        # sym is invariant; pi then i must reproduce it
        back = symmetrize_tensor(w, average_tensor(w, sym, rank), rank)
        assert back == sym


def test_permute_tensor_signs():
    w = SuperSpace(("xi", "eta"), (ODD, ODD))
    t = {(0, 1): Fraction(1)}
    assert permute_tensor(w, t, (1, 0)) == {(1, 0): Fraction(-1)}
    # slots after the first len(order) stay in place
    t = {(0, 1, 1, 0): Fraction(1)}
    assert permute_tensor(w, t, (1, 0)) == {(1, 0, 1, 0): Fraction(-1)}


def test_sparse_sum_adds_repeated_keys_and_drops_cancelled_ones():
    pairs = [("a", Fraction(1, 2)), ("b", Fraction(2)), ("a", Fraction(1, 3)),
             ("c", Fraction(1)), ("b", Fraction(-2))]
    assert sparse_sum(pairs) == {"a": Fraction(5, 6), "c": Fraction(1)}
    assert sparse_sum([]) == {} and sparse_sum([("z", 0)]) == {}


def test_sparse_sum_keeps_first_insertion_order():
    # a key keeps its first place even when its running sum passes through 0
    pairs = [("c", 1), ("a", 2), ("c", -1), ("b", 3), ("a", 1), ("c", 4)]
    assert list(sparse_sum(pairs).items()) == [("c", 4), ("a", 3), ("b", 3)]


def test_sparse_sum_without_a_denominator_keeps_the_sums():
    # the case an integer kernel collapses equal keys with between its steps:
    # int sums stay ints, zero sums drop, the first-insertion order holds
    pairs = [("c", 1), ("a", 2), ("c", -1), ("b", 3), ("a", 1), ("d", 0)]
    out = sparse_sum(pairs, None)
    assert list(out.items()) == [("a", 3), ("b", 3)]
    assert all(type(v) is int for v in out.values())
    assert sparse_sum([("a", Fraction(1, 2)), ("a", Fraction(1, 3))], None) == \
        {"a": Fraction(5, 6)}


def test_sparse_sum_values_are_fractions():
    out = sparse_sum([("a", 1), ("b", 2), ("a", 3)])
    assert out == {"a": 4, "b": 2}
    assert all(type(v) is Fraction for v in out.values())
    # an int entry comes out of symmetrizing as a Fraction
    w = SuperSpace(("x", "y"), (EVEN, EVEN))
    sym = symmetrize_tensor(w, {(0, 1, 0): 1}, 2)
    assert sym == {(0, 1, 0): 1, (1, 0, 0): 1}
    assert all(type(v) is Fraction for v in sym.values())
