from fractions import Fraction

from milnork.linalg import RowSpace, add_to, express


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


def test_express():
    vecs = rows([1, 0, 1], [0, 1, 1])
    target = dense_to_sparse([2, 3, 5])
    coeffs = express(vecs, target, 3)
    assert coeffs == [Fraction(2), Fraction(3)]
    assert express(vecs, dense_to_sparse([0, 0, 1]), 3) is None


def test_express_degenerate():
    assert express([], {}, 4) == []
    assert express([], dense_to_sparse([1]), 4) is None


def test_add_to_drops_cancelled_entries():
    vec = {}
    add_to(vec, 0, Fraction(0))
    assert vec == {}
    add_to(vec, 0, Fraction(1, 2))
    add_to(vec, 1, Fraction(3))
    add_to(vec, 0, Fraction(-1, 2))
    assert vec == {1: Fraction(3)}
