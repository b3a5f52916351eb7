"""Finite-window inverse systems of Q-vector spaces.

A Tower has levels 0..L-1 with one rational matrix per adjacent pair, mapping
level k+1 down to level k.  All statements are window-honest: stabilization
is only claimed when witnessed by two equal consecutive images, or when the
system is surjective all the way up (the regime of the classical
Mittag-Leffler hypothesis for surjective systems), or vacuously at the top.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidSpec, ParseError
from .linalg import RowSpace, rational, whole
from .report import field_rows


def _as_matrix(rows, nrows, ncols):
    out = []
    for r in rows:
        row = tuple(rational(x) for x in r)
        if len(row) != ncols:
            raise InvalidSpec("matrix row width does not match the level dimension")
        out.append(row)
    if len(out) != nrows:
        raise InvalidSpec("matrix height does not match the level dimension")
    return tuple(out)


class Tower(namedtuple("Tower", "dims maps")):
    """Level dimensions, and maps[k]: level k+1 -> level k, shape (dims[k], dims[k+1])."""

    __slots__ = ()

    @classmethod
    def build(cls, dims, maps):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise InvalidSpec("negative dimension")
        if len(maps) != max(len(dims) - 1, 0):
            raise InvalidSpec(f"need {len(dims) - 1} maps for {len(dims)} levels")
        mats = tuple(_as_matrix(m, dims[k], dims[k + 1]) for k, m in enumerate(maps))
        return cls(dims, mats)

    @property
    def length(self):
        return len(self.dims)

    @classmethod
    def identity(cls, dim, length):
        eye = [[int(i == j) for j in range(dim)] for i in range(dim)]
        return cls.build([dim] * length, [eye] * (length - 1))


def _mat_mul(a, b):
    if not a or not b:
        return tuple(tuple() for _ in a)
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(rational(sum(x * y for x, y in zip(row, col))) for col in bt)
        for row in a
    )


def _mat_rank(mat):
    return RowSpace({j: v for j, v in enumerate(row) if v} for row in mat).rank


def surjectivity_check(tower):
    """Per adjacent map: does it hit all of its target level?"""
    out = []
    for k, m in enumerate(tower.maps):
        out.append(_mat_rank(m) == tower.dims[k])
    return out


class LevelStabilization(namedtuple("LevelStabilization",
                                     "level ranks offset stabilized reason")):
    """The image chain into one level: ranks, the rank of the image from level
    k+j, j = 1..window; offset, the first j-1 with rank equal to the
    window-end rank, or None; reason, one of vacuous | witnessed | surjective
    | not-stabilized."""

    __slots__ = ()

    def record(self):
        return [
            (f"ml.level{self.level}.ranks", ",".join(str(r) for r in self.ranks) or "-"),
            (f"ml.level{self.level}.offset", self.offset if self.offset is not None else "-"),
            (f"ml.level{self.level}.stabilized", self.stabilized),
            (f"ml.level{self.level}.reason", self.reason),
        ]


def ml_window_check(tower):
    """Image chains from higher levels into each level, with honest flags.

    The images are nested, so their ranks are non-increasing; the chain is
    declared stabilized when two consecutive images at the window end agree,
    when every window map above the level is surjective, or vacuously when
    there is no incoming map.
    """
    surj = surjectivity_check(tower)
    reports = []
    for k in range(tower.length):
        window = tower.length - 1 - k
        ranks = []
        comp = None
        for j in range(1, window + 1):
            comp = tower.maps[k + j - 1] if comp is None else _mat_mul(comp, tower.maps[k + j - 1])
            ranks.append(_mat_rank(comp))
        if not ranks:
            reports.append(LevelStabilization(k, (), 0, True, "vacuous"))
            continue
        final = ranks[-1]
        offset = next(j for j, r in enumerate(ranks) if r == final)
        witnessed = len(ranks) - offset >= 2
        all_surjective = all(surj[k:])
        if witnessed:
            reports.append(LevelStabilization(k, tuple(ranks), offset, True, "witnessed"))
        elif all_surjective and final == tower.dims[k]:
            reports.append(LevelStabilization(k, tuple(ranks), offset, True, "surjective"))
        else:
            reports.append(LevelStabilization(k, tuple(ranks), offset, False, "not-stabilized"))
    return reports


class LimitReport(namedtuple("LimitReport", "dim stabilized")):
    __slots__ = ()

    def record(self):
        return field_rows("limit", self)


def limit_dim(tower):
    """Dimension of the compatible-tuple space of the window, plus the flag.

    The constraint system v_k = M_k v_{k+1} is solved exactly; the flag is
    true when the image chains stabilize at every level, meaning the window
    value survives any extension of the tower by isomorphisms.
    """
    if tower.length == 0:
        return LimitReport(0, True)
    offsets = []
    total = 0
    for d in tower.dims:
        offsets.append(total)
        total += d
    space = RowSpace()
    for k, m in enumerate(tower.maps):
        for i in range(tower.dims[k]):
            row = {offsets[k] + i: 1}
            for j in range(tower.dims[k + 1]):
                if m[i][j]:
                    row[offsets[k + 1] + j] = -m[i][j]
            space.insert(row)
    nullity = total - space.rank
    stab = all(r.stabilized for r in ml_window_check(tower))
    return LimitReport(nullity, stab)


def parse_tower_file(text):
    """Tower input: a `dims:` line then one `map k:` line per adjacent pair.

    Matrix rows are separated by `;`, entries by `,`; entries are rational
    literals.  Map k sends level k+1 to level k; a map onto a level of
    dimension 0 has 0 rows, written as an empty line.  Each key occurs once.
    """
    dims = None
    raw_maps = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        try:
            if key == "dims":
                if dims is not None:
                    raise ParseError(f"line {lineno}: repeated dims line")
                dims = [whole(x.strip()) for x in value.split(",") if x.strip()]
            elif key.startswith("map"):
                idx = whole(key[3:])
                if idx in raw_maps:
                    raise ParseError(f"line {lineno}: repeated map {idx}")
                rows = []
                for chunk in value.split(";"):
                    chunk = chunk.strip()
                    if chunk:
                        rows.append([rational(x.strip()) for x in chunk.split(",")])
                    else:
                        rows.append([])
                raw_maps[idx] = rows
            else:
                raise ParseError(f"line {lineno}: unknown key {key!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"line {lineno}: bad number in {key!r}: {exc}") from None
    if dims is None:
        raise ParseError("missing dims line")
    extra = sorted(set(raw_maps) - set(range(len(dims) - 1)))
    if extra:
        raise ParseError(f"map {extra[0]} is out of range for {len(dims)} levels")
    maps = []
    for k in range(len(dims) - 1):
        if k not in raw_maps:
            raise ParseError(f"missing map {k}")
        rows = raw_maps[k]
        if dims[k] == 0:
            if rows != [[]]:
                raise ParseError(f"map {k} onto a level of dimension 0 must be empty")
            rows = []
        maps.append(rows)
    try:
        return Tower.build(dims, maps)
    except InvalidSpec as exc:
        raise ParseError(str(exc)) from exc
