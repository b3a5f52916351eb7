import math
from fractions import Fraction

import pytest

from milnork.linalg import RowSpace, add_to, augmented_space, printable, printable_power


def dense_to_sparse(row):
    return {j: Fraction(v) for j, v in enumerate(row) if v}


def rows(*dense):
    return [dense_to_sparse(r) for r in dense]


def rank_of(rows):
    space = RowSpace()
    for row in rows:
        space.insert(row)
    return space.rank


def test_rank_simple():
    assert rank_of(rows([1, 0], [0, 1])) == 2
    assert rank_of(rows([1, 2], [2, 4])) == 1
    assert rank_of(rows([0, 0])) == 0
    assert rank_of([]) == 0


def test_reduce_is_canonical():
    space = RowSpace()
    space.insert(dense_to_sparse([1, 2, 0]))
    space.insert(dense_to_sparse([0, 1, 1]))
    # pivots fully back-substituted: first row loses its column-1 entry
    res = space.reduce(dense_to_sparse([1, 2, 0]))
    assert res == {}
    res = space.reduce(dense_to_sparse([0, 0, 5]))
    assert res == {2: Fraction(5)}


def test_insert_reports_pivot():
    space = RowSpace()
    assert space.insert(dense_to_sparse([0, 3, 1])) == 1
    assert space.insert(dense_to_sparse([0, 6, 2])) is None
    assert space.rank == 1


def test_add_to_drops_cancelled_entries():
    vec = {}
    add_to(vec, 0, Fraction(0))
    assert vec == {}
    add_to(vec, 0, Fraction(1, 2))
    add_to(vec, 1, Fraction(3))
    add_to(vec, 0, Fraction(-1, 2))
    assert vec == {1: Fraction(3)}


def test_augmented_space_relations_and_solve():
    vecs = rows([1, 0, 1], [0, 1, 1], [1, 1, 2])
    space = augmented_space(vecs, 3)
    # v0 + v1 - v2 = 0 is the one relation: the one pivot row past column 3
    assert [row for lead, row in space.pivots.items() if lead >= 3] == [{3: 1, 4: 1, 5: -1}]
    # reducing (w | 0) leaves (0 | -x) with sum x_i v_i = w
    residual = space.reduce(dense_to_sparse([2, 1, 3]))
    assert min(residual) >= 3
    x = [-residual.get(3 + i, 0) for i in range(3)]
    assert [sum(x[i] * vecs[i].get(j, 0) for i in range(3)) for j in range(3)] == [2, 1, 3]
    # outside the span a column below 3 is left
    assert min(space.reduce(dense_to_sparse([1, 0, 0]))) < 3


@pytest.mark.parametrize("q", [0, 1, -1, 2, 3, -7, 10, Fraction(1, 10), Fraction(-9, 4),
                               10 ** 100 + 1])
def test_a_power_is_checked_as_its_value_would_be(q):
    """printable_power(q, k) raises exactly when printable(q ** k) does, for k
    on both sides of the digit limit, with the same message."""
    m = max(abs(Fraction(q).numerator), Fraction(q).denominator)
    edge = math.ceil(4300 / math.log10(m)) - 1 if m > 1 else 0  # the last k under 10^4300
    for k in {0, 1, 2, *range(max(edge - 3, 0), edge + 4)}:
        try:
            printable(Fraction(q) ** k, ValueError, "q^k")
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            printable_power(Fraction(q), k, ValueError, "q^k")
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (q, k)
        assert m < 2 or (expected is None) == (k <= edge), (q, k)


def test_a_power_past_the_limit_is_refused_without_building_it():
    # 3^(10^18) would have about 4.8 * 10^17 digits
    with pytest.raises(ValueError, match=r"3\^k has more than the interpreter's limit of 4300"):
        printable_power(3, 10 ** 18, ValueError, "3^k")
    printable_power(-1, 10 ** 18, ValueError, "(-1)^k")
