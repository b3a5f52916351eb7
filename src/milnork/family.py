"""The fixed test-algebra family used by the bundled suites.

The list is versioned: additions are appended, existing entries never change.
"""

from functools import cache

from .algebra import AlgebraSpec, build_algebra

_SPECS = (
    ("Q", (), ()),
    ("Q[t]/t^2", ("t",), ("t^2",)),
    ("Q[t]/t^3", ("t",), ("t^3",)),
    ("Q[t]/t^5", ("t",), ("t^5",)),
    ("Q[x,y]/(x,y)^2", ("x", "y"), ("x^2", "x*y", "y^2")),
    ("Q[x,y]/(x^2,xy,y^2,y^3)", ("x", "y"), ("x^2", "x*y", "y^2", "y^3")),
)


@cache
def builtin_algebras():
    """Ordered (name, algebra) pairs; the algebra objects are shared."""
    return tuple((name, build_algebra(AlgebraSpec(v, r))) for name, v, r in _SPECS)
