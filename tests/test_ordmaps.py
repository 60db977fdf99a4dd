"""Monotone-map category: composition, sections, shuffles."""

import gc
import math
import random
from itertools import product as iproduct

import pytest

from simplicial_derham.ordmaps import (
    OrdMap, compose, identity, face, degeneracy, constant,
    shuffle_count, from_jumps,
    partition_to_shuffle, shuffle_to_partition, is_shuffle,
    enumerate_shuffles, operad_left, operad_right, _ordered_partitions,
)
from simplicial_derham.verify import run_suite


def test_basic_constructors():
    f = OrdMap((0, 0, 1), 1)
    assert f.dom == 2 and f.cod == 1
    assert f(0) == 0 and f(2) == 1
    assert identity(3) == OrdMap((0, 1, 2, 3), 3)
    assert face(2, 1) == OrdMap((0, 2), 2)
    assert degeneracy(2, 0) == OrdMap((0, 0, 1, 2), 2)
    assert constant(2, 1, 3) == OrdMap((1, 1, 1), 3)


def test_rejects_nonmonotone():
    with pytest.raises(ValueError):
        OrdMap((1, 0), 1)


def test_compose_and_identity():
    f = face(2, 1)            # [1] -> [2]
    g = degeneracy(1, 0)      # [2] -> [1]
    fg = compose(f, g)
    assert fg.dom == 2 and fg.cod == 2
    assert compose(identity(f.cod), f) == f
    assert compose(f, identity(f.dom)) == f


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplicial_identities(n):
    # d_j d_i = d_i d_{j-1} for i < j
    for i in range(n + 1):
        for j in range(i + 1, n + 2):
            lhs = compose(face(n + 1, j), face(n, i))
            rhs = compose(face(n + 1, i), face(n, j - 1))
            assert lhs == rhs
    # s_j s_i = s_i s_{j+1} for i <= j
    for i in range(n):
        for j in range(i, n):
            lhs = compose(degeneracy(n - 1, j), degeneracy(n, i))
            rhs = compose(degeneracy(n - 1, i), degeneracy(n, j + 1))
            assert lhs == rhs
    # mixed: s_j d_i as maps [n] -> [n]
    for i in range(n + 2):
        for j in range(n + 1):
            got = compose(degeneracy(n, j), face(n + 1, i))
            if i < j:
                assert got == compose(face(n, i), degeneracy(n - 1, j - 1))
            elif i in (j, j + 1):
                assert got == identity(n)
            else:
                assert got == compose(face(n, i - 1), degeneracy(n - 1, j))


def test_dagger_is_min_section():
    rng = random.Random(11)
    for _ in range(100):
        cod = rng.randint(0, 4)
        dom = rng.randint(cod, cod + 4)
        jumps = sorted(rng.sample(range(1, dom + 1), cod))
        vals = [0]
        for i in range(1, dom + 1):
            vals.append(vals[-1] + (1 if i in jumps else 0))
        f = OrdMap(tuple(vals), cod)
        assert f.is_surjective()
        sec = f.dagger()
        assert compose(f, sec) == identity(cod)
        for j in range(cod + 1):
            assert sec(j) == min(i for i in range(dom + 1) if f(i) == j)


def test_from_jumps_inverts_jumps():
    # every surjection out of [m], m <= 6, built from its 0/1 steps
    count = 0
    for m in range(7):
        for steps in iproduct((0, 1), repeat=m):
            vals = [0]
            for s in steps:
                vals.append(vals[-1] + s)
            f = OrdMap(vals, vals[-1])
            assert f.jumps() == tuple(i for i, s in enumerate(steps, 1) if s)
            assert from_jumps(f.jumps(), f.dom) == f
            count += 1
    assert count == 2 ** 7 - 1


@pytest.mark.parametrize("parts,count", [
    ((1, 1), 2), ((2, 1), 3), ((2, 2), 6), ((3, 2), 10),
    ((1, 1, 1), 6), ((2, 1, 1), 12),
])
def test_shuffle_counts(parts, count):
    shuffles = list(enumerate_shuffles(parts))
    assert len(shuffles) == count
    assert shuffle_count(parts) == count


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)])
def test_shuffles_jointly_injective_surjective(n, m):
    total = n + m
    for zs in enumerate_shuffles((n, m)):
        assert is_shuffle(zs, (n, m))
        for z in zs:
            assert z.is_surjective()
        seen = set()
        for i in range(total):
            key = tuple(z(i + 1) - z(i) for z in zs)
            assert sum(key) == 1
            seen.add((i, key.index(1)))
        assert len(seen) == total


@pytest.mark.parametrize("parts,blocks", [
    ((), [()]),
    ((0, 2), [((), (1, 2))]),
    ((1, 1), [((1,), (2,)), ((2,), (1,))]),
    ((2, 1), [((1, 2), (3,)), ((1, 3), (2,)), ((2, 3), (1,))]),
    ((1, 1, 1), [((1,), (2,), (3,)), ((1,), (3,), (2,)), ((2,), (1,), (3,)),
                 ((2,), (3,), (1,)), ((3,), (1,), (2,)), ((3,), (2,), (1,))]),
])
def test_shuffle_order_is_lexicographic_in_partitions(parts, blocks):
    # the verify suites draw from these lists, so their order is pinned
    assert [shuffle_to_partition(zs) for zs in enumerate_shuffles(parts)] == blocks


def test_enumerate_shuffles_leaves_no_cycle():
    # the result is freed by reference counting, with no work for the collector
    gc.collect()
    gc.disable()
    try:
        enumerate_shuffles((2, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_shuffles_matches_unmemoized_oracle():
    # every parts with at most 3 parts and sum <= 6, in the same order
    for r in range(4):
        for parts in iproduct(range(7), repeat=r):
            n = sum(parts)
            if n > 6:
                continue
            want = [partition_to_shuffle(blocks, n) for blocks in
                    _ordered_partitions(tuple(range(1, n + 1)), parts)]
            got = enumerate_shuffles(parts)
            # a tuple, so no caller can corrupt the shared value
            assert type(got) is tuple and list(got) == want, parts
            assert len(got) == shuffle_count(parts)
            assert enumerate_shuffles(parts) is got


def test_shuffles_suite_leaves_its_count_check_uncached():
    enumerate_shuffles.cache_clear()
    assert run_suite("shuffles")["pass"]
    misses = enumerate_shuffles.cache_info().misses
    enumerate_shuffles((4, 4))
    assert enumerate_shuffles.cache_info().misses == misses + 1


def test_binomial_totals():
    for n in range(0, 5):
        for m in range(0, 5):
            if n + m == 0 or n + m > 8:
                continue
            assert shuffle_count((n, m)) == math.comb(n + m, n)


def test_partition_round_trip():
    for n, m in [(2, 2), (3, 1), (2, 3)]:
        for zs in enumerate_shuffles((n, m)):
            blocks = shuffle_to_partition(zs)
            assert partition_to_shuffle(blocks, n + m) == zs


@pytest.mark.parametrize("n,m,p", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 3)])
def test_operad_composition_bijection(n, m, p):
    # left-nested and right-nested assemblies hit the same triple shuffles
    left = set()
    for zeta, xi in enumerate_shuffles((n + m, p)):
        for phi, psi in enumerate_shuffles((n, m)):
            left.add(operad_left(zeta, xi, phi, psi))
    right = set()
    for zeta, xi in enumerate_shuffles((n, m + p)):
        for phi, psi in enumerate_shuffles((m, p)):
            right.add(operad_right(zeta, xi, phi, psi))
    want = math.factorial(n + m + p) // (
        math.factorial(n) * math.factorial(m) * math.factorial(p))
    assert len(left) == len(right) == want
    assert left == right == set(enumerate_shuffles((n, m, p)))
