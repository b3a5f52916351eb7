"""Exact sparse linear algebra over Q.

Rows are dicts mapping column index to a nonzero Fraction.  Pivot columns of
a reduced echelon form are intrinsic to the row span, so the incremental
insertion below yields the same pivots as column-major elimination.

`add_to` is the one sparse-accumulate kernel: every sparse vector in the
engine (polynomial terms, algebra coordinates, form coordinates, Laurent
coefficients, realization vectors, echelon rows) is summed through it.
"""

from fractions import Fraction


def add_to(vec, key, value):
    """vec[key] += value, storing no zeros: an entry that cancels is dropped."""
    old = vec.get(key)
    if old is None:
        if value:
            vec[key] = value
        return
    new = old + value
    if new:
        vec[key] = new
    else:
        del vec[key]


class RowSpace:
    """Incrementally maintained reduced row echelon form."""

    def __init__(self):
        self.pivots = {}  # pivot column -> fully reduced monic row

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Return the residual of `row` modulo the current span (row unchanged)."""
        res = dict(row)
        for col in sorted(res):
            if col not in self.pivots:
                continue
            c = res.get(col)
            if not c:
                continue
            for pcol, pval in self.pivots[col].items():
                add_to(res, pcol, -c * pval)
        return res

    def insert(self, row):
        """Add `row` to the span; return its pivot column or None if dependent."""
        res = self.reduce(row)
        if not res:
            return None
        lead = min(res)
        inv = Fraction(1) / res[lead]
        res = {c: v * inv for c, v in res.items()}
        for prow in self.pivots.values():
            c = prow.get(lead)
            if c:
                for col, val in res.items():
                    add_to(prow, col, -c * val)
        self.pivots[lead] = res
        return lead


def express(vectors, target, ncols):
    """Write `target` as a linear combination of `vectors`, or return None.

    Augmented-column trick: track combination coefficients past `ncols`.
    """
    space = RowSpace()
    for i, v in enumerate(vectors):
        row = dict(v)
        row[ncols + i] = Fraction(1)
        space.insert(row)
    res = space.reduce(dict(target))
    if any(col < ncols and val for col, val in res.items()):
        return None
    coeffs = [Fraction(0)] * len(vectors)
    for col, val in res.items():
        if col >= ncols:
            coeffs[col - ncols] = -val
    return coeffs
