from fractions import Fraction

from milnork.linalg import RowSpace, add_to, augmented_space


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
