from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from milnork.errors import InvalidSpec, ParseError
from milnork.towers import (
    Tower,
    limit_dim,
    ml_window_check,
    parse_tower_file,
    surjectivity_check,
)


def test_identity_tower():
    T = Tower.identity(2, 3)
    assert surjectivity_check(T) == [True, True]
    reports = ml_window_check(T)
    assert all(r.stabilized for r in reports)
    assert reports[0].offset == 0
    rep = limit_dim(T)
    assert rep.dim == 2 and rep.stabilized


def test_zero_map_not_surjective():
    T = Tower.build([1, 1], [[[0]]])
    assert surjectivity_check(T) == [False]


def test_wide_map_surjective():
    T = Tower.build([1, 2], [[[1, 0]]])
    assert surjectivity_check(T) == [True]


def test_spec_offset_example():
    T = Tower.build([2, 2, 2, 2],
                    [[[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]])
    lvl0 = ml_window_check(T)[0]
    assert lvl0.ranks == (2, 1, 1)
    assert lvl0.offset == 1 and lvl0.stabilized and lvl0.reason == "witnessed"


def test_strictly_decreasing_not_stabilized():
    T = Tower.build([4, 3, 2, 1],
                    [[[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
                     [[1, 0], [0, 1], [0, 0]],
                     [[1], [0]]])
    assert any(not r.stabilized for r in ml_window_check(T))


def test_zero_tower_flagged_unstabilized():
    T = Tower.build([3, 3, 3], [[[0] * 3] * 3, [[0] * 3] * 3])
    rep = limit_dim(T)
    assert rep.dim == 3
    assert not rep.stabilized


def test_limit_tail_dimension():
    T = Tower.build([1, 2, 2, 2],
                    [[[1, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    rep = limit_dim(T)
    assert rep.dim == 2 and rep.stabilized


def test_limit_constraint_solve_kills_nothing_upstairs():
    # non-injective first map, isomorphisms above: the window limit is the
    # stable tail dimension
    T = Tower.build([1, 3, 3], [[[1, 1, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    rep = limit_dim(T)
    assert rep.dim == 3


def test_build_validation():
    with pytest.raises(InvalidSpec):
        Tower.build([2, 2], [[[1, 0]]])  # wrong height
    with pytest.raises(InvalidSpec):
        Tower.build([2, 2], [[[1], [0]]])  # wrong width
    with pytest.raises(InvalidSpec):
        Tower.build([2], [[[1]]])  # too many maps


def test_parse_tower_file():
    text = """
    # comment
    dims: 2, 2
    map 0: 1, 0; 0, 1/2
    """
    T = parse_tower_file(text)
    assert T.dims == (2, 2)
    assert T.maps[0][1][1] == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_tower_file("map 0: 1")
    with pytest.raises(ParseError):
        parse_tower_file("dims: 2, 2")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 4))
def test_isomorphism_towers_stabilize(dim, length):
    T = Tower.identity(dim, length)
    rep = limit_dim(T)
    assert rep.dim == dim and rep.stabilized
    assert all(r.stabilized and (r.offset in (0, None)) for r in ml_window_check(T))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4))
def test_surjective_towers_offset_zero(dims):
    dims = sorted(dims)  # nondecreasing upward so projections can be surjective
    maps = []
    for k in range(len(dims) - 1):
        rows = [[Fraction(int(i == j)) for j in range(dims[k + 1])] for i in range(dims[k])]
        maps.append(rows)
    T = Tower.build(dims, maps)
    assert all(surjectivity_check(T))
    for r in ml_window_check(T):
        assert r.stabilized
        assert r.offset in (0, None)


def test_monotone_under_injective_append():
    base = Tower.build([2, 2], [[[1, 0], [0, 1]]])
    grown = Tower.build([2, 2, 2], [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    assert limit_dim(grown).dim <= limit_dim(base).dim


def test_a_tower_of_no_levels_has_a_stabilized_zero_limit():
    T = Tower.build([], [])
    assert limit_dim(T) == (0, True)
    assert ml_window_check(T) == [] and surjectivity_check(T) == []


@pytest.mark.parametrize("dims, maps, ranks, offsets, limit", [
    ([2, 0, 2], [[[], []], []], [(0, 0), (0,), ()], [0, 0, 0], (2, True)),
    ([0, 2, 1], [[], [[1], [1]]], [(0, 0), (1,), ()], [0, 0, 0], (1, False)),
    ([1, 0], [[[]]], [(0,), ()], [0, 0], (0, False)),
    ([0], [], [()], [0], (0, True)),
    ([2, 1, 0, 1], [[[1], [0]], [[]], []], [(1, 0, 0), (0, 0), (0,), ()], [1, 0, 0, 0],
     (1, True)),
])
def test_a_level_of_dimension_zero_goes_through_the_general_loops(dims, maps, ranks, offsets,
                                                                   limit):
    """Products through a zero-dimensional level are zero-width matrices, of rank 0."""
    T = Tower.build(dims, maps)
    reports = ml_window_check(T)
    assert [r.ranks for r in reports] == ranks and [r.offset for r in reports] == offsets
    assert limit_dim(T) == limit
