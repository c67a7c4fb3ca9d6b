import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitzcf.cf_engine import (Convergent, _last_convergent, convergents,
                                 euler_mindig, eval_finite, shift_check,
                                 stream_from_list)
from hurwitzcf.errors import IndexTooLarge
from hurwitzcf.hurwitz import CFParams, denom_stream

from reference import is_even_set, naive_euler_mindig, plain_convergents

E_STREAM = [2, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, 1, 1, 10, 1, 1, 12]
TAN1_STREAM = [1, 1, 1, 3, 1, 5, 1, 7, 1, 9, 1, 11]


def test_convergents_basic():
    convs = convergents(stream_from_list([1, 1, 2]), 2)
    assert [c.p for c in convs] == [1, 1, 2, 5]
    assert [c.q for c in convs] == [0, 1, 1, 3]


def test_convergents_of_e_prefix():
    convs = convergents(stream_from_list(E_STREAM), 5)
    assert (convs[-1].p, convs[-1].q) == (87, 32)


def test_single_term():
    convs = convergents(stream_from_list([7]), 0)
    assert (convs[-1].p, convs[-1].q) == (7, 1)


def test_determinant_identity_and_coprimality():
    for stream in (E_STREAM, TAN1_STREAM, [3, 1, 4, 1, 5, 9, 2, 6]):
        convs = convergents(stream_from_list(stream), len(stream) - 1)
        for prev, cur in zip(convs, convs[1:]):
            n = cur.n
            assert cur.p * prev.q - prev.p * cur.q == (-1) ** (n - 1)
            assert math.gcd(cur.p, cur.q) == 1


# a_0 is any integer; the later terms are mostly 1, the unit-term step
@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 9),
       st.lists(st.sampled_from([1, 1, 1, 2, 3, 7]), max_size=40))
@example(1, [1] * 40)
@example(0, [1, 2, 1, 1, 5])
@example(0, [])
def test_convergents_equal_the_plain_recurrence(a0, rest):
    s = stream_from_list([a0] + rest)
    n = len(rest)
    convs = convergents(s, n)
    assert convs == plain_convergents(s, n)
    for c in convs:
        assert type(c) is Convergent
        assert c._fields == ("n", "p", "q")
    assert _last_convergent(s, n) == convs[-1]


def test_determinant_identity_at_depth():
    # p_n q_{n-1} - p_{n-1} q_n = (-1)^(n+1) through thousands of unit terms
    for params in (CFParams(1, 2, 2, 3, 2), CFParams(2, 1, 1, 2, 1)):
        convs = convergents(denom_stream(params), 3000)
        for prev, cur in zip(convs, convs[1:]):
            assert cur.p * prev.q - prev.p * cur.q == (-1) ** (cur.n + 1)


def test_is_even_set_examples():
    assert is_even_set({1, 2, 3, 4, 6, 7})
    assert not is_even_set({1, 2, 3})
    assert is_even_set(set())
    assert is_even_set({5, 6})
    assert not is_even_set({4})


def test_euler_mindig_examples():
    em = euler_mindig(stream_from_list([1, 1, 2]), 2)
    assert em.p == 5 and em.q == 3
    em = euler_mindig(stream_from_list([7]), 0)
    assert (em.p, em.q) == (7, 1)
    em = euler_mindig(stream_from_list([2, 1, 2]), 2)
    assert (em.p, em.q) == (8, 3)


def test_euler_mindig_guard():
    with pytest.raises(IndexTooLarge):
        euler_mindig(stream_from_list([1] * 40), 30)


def test_euler_mindig_matches_recurrence():
    for stream in (E_STREAM, TAN1_STREAM):
        s = stream_from_list(stream)
        convs = convergents(s, len(stream) - 1)
        for n in range(min(len(stream), 15)):
            em = euler_mindig(s, n)
            assert (em.p, em.q) == (convs[n + 1].p, convs[n + 1].q)


def test_naive_euler_mindig_agrees_with_run_enumeration():
    s = stream_from_list(E_STREAM)
    for n in range(11):
        fast = euler_mindig(s, n)
        slow = naive_euler_mindig(s, n)
        assert fast == slow


# the batched walk against the subset enumeration, n = len(a) - 1 <= 14
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 50), min_size=1, max_size=15))
@example([7])
@example(list(range(50, 35, -1)))
@example([1] * 15)  # every product passed on unmultiplied
@example([1, 3, 1, 1, 7, 1, 2, 1, 1, 50, 1, 4, 1, 1, 9])  # units mixed in
def test_batched_walk_equals_naive(a):
    s = stream_from_list(a)
    n = len(a) - 1
    assert euler_mindig(s, n) == naive_euler_mindig(s, n)


def test_euler_mindig_counts_one_leaf_per_even_set():
    # on the all-ones stream every product is 1, so p_n counts the even
    # sets of {0..n}: F_{n+2} of them (and q_n = F_{n+1})
    fib = [0, 1]
    while len(fib) < 26:
        fib.append(fib[-1] + fib[-2])
    s = stream_from_list([1] * 23)
    for n in range(23):
        assert euler_mindig(s, n) == (n, fib[n + 2], fib[n + 1])


class _CountedTerm(int):
    """A partial quotient that counts the products it is a factor of."""
    products = 0

    def __rmul__(self, other):
        _CountedTerm.products += 1
        return int(self) * other

    __mul__ = __rmul__


def test_euler_mindig_forms_each_leaf_on_its_own():
    # without unit terms the walk multiplies each partial even set's
    # product by the next element it leaves out, once per partial set:
    # F_{n+3} - 1 products for {0..n} and F_{n+2} - 1 for {1..n}.  A walk
    # that takes a_g out of a sum, or merges equal products, makes fewer.
    # The all-ones test cannot tell: there a merged sum has the same value
    fib = [0, 1]
    while len(fib) < 24:
        fib.append(fib[-1] + fib[-2])
    rng = random.Random(18)
    for n in range(19):
        a = [_CountedTerm(rng.randint(2, 9)) for _ in range(n + 1)]
        s = stream_from_list(a)
        _CountedTerm.products = 0
        em = euler_mindig(s, n)
        assert _CountedTerm.products == fib[n + 4] - 2, n
        assert em == plain_convergents(s, n)[-1]


# indices 15..22, past the naive enumeration, with units mixed in: runs of
# them, and a_n = 1, where the last batches are only flattened
@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 9),
       st.lists(st.sampled_from([1, 1, 1, 2, 3, 7, 50]), min_size=15,
                max_size=22))
@example(4, [3, 1, 2, 1, 1, 5, 2, 9, 1, 4, 1] + [1] * 11)  # all-units tail
@example(1, [1] * 22)
@example(0, [2, 3, 7] * 5)
def test_euler_mindig_at_depth_equals_the_plain_recurrence(a0, rest):
    s = stream_from_list([a0] + rest)
    n = len(rest)
    assert euler_mindig(s, n) == plain_convergents(s, n)[-1]


@given(st.lists(st.integers(1, 9), min_size=1, max_size=30))
def test_last_convergent_is_the_last_of_convergents(a):
    s = stream_from_list(a)
    assert _last_convergent(s, len(a) - 1) == convergents(s, len(a) - 1)[-1]


def test_eval_finite_examples():
    assert eval_finite([1, 1, 2]) == Fraction(5, 3)
    assert eval_finite([7]) == 7
    convs = convergents(stream_from_list(TAN1_STREAM[:6]), 5)
    assert eval_finite(TAN1_STREAM[:6]) == Fraction(convs[-1].p, convs[-1].q)


def test_eval_finite_equals_last_convergent():
    for stream in (E_STREAM, [4, 3, 4, 4, 4, 5, 4, 6]):
        convs = convergents(stream_from_list(stream), len(stream) - 1)
        assert eval_finite(stream) == Fraction(convs[-1].p, convs[-1].q)


def test_shift_check_examples():
    assert shift_check(stream_from_list(E_STREAM[:6] + [1]), 5)
    assert shift_check(stream_from_list([1, 1, 1]), 1)
    assert shift_check(stream_from_list([4, 3, 4, 4, 4, 5, 4]), 5)


@given(st.lists(st.integers(1, 9), min_size=3, max_size=12))
def test_shift_check_random_streams(a):
    assert shift_check(stream_from_list(a), len(a) - 2)


def test_sandwich_property():
    # the limit lies strictly between consecutive convergents
    s = stream_from_list(E_STREAM)
    convs = convergents(s, len(E_STREAM) - 1)
    proxy = Fraction(convs[-1].p, convs[-1].q)
    for a, b in zip(convs[1:-3], convs[2:-2]):
        lo, hi = sorted((Fraction(a.p, a.q), Fraction(b.p, b.q)))
        assert lo < proxy < hi
