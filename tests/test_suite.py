"""Every bundled check can fail: with the engine function it reads replaced
by a wrong one, each check that compares through that function reads fail.
The rule-soundness grid realizes its states within the crosscheck's bound."""

from collections import Counter

import pytest

from milnork import certify, suite
from milnork.algebra import AlgebraElement
from milnork.family import builtin_algebras
from milnork.kahler import d, map_form
from milnork.towers import limit_dim

NAMES = [name for name, _ in builtin_algebras()]


def _d_of_square(x):
    """d(x^2) = 2x dx for an element: Leibniz fails with it."""
    return d(x * x if isinstance(x, AlgebraElement) else x)


def _d_of_first_entry(comb):
    """d of the first entry, a nonzero 1-form that is not additive in it."""
    return d(comb.terms[0][1].entries[0])


@pytest.mark.parametrize("name, wrong, checks, failing", [
    ("d", _d_of_square, suite.kahler_checks,
     [f"kahler.leibniz.{n}" for n in NAMES[1:]]),
    ("map_form", lambda f, target: map_form(f, target).scale(2), suite.kahler_checks,
     [f"kahler.functorial_d.{n}" for n in NAMES]),
    ("map_form", lambda f, target: map_form(f, target).scale(2), suite.milnor_checks,
     [f"milnor.projection_compat.{n}" for n in NAMES[1:]]),
    ("dlog_realize", _d_of_first_entry, suite.milnor_checks,
     ["milnor.steinberg_kills"] + [f"milnor.multiplicativity.{n}" for n in NAMES[1:4]]
     + [f"milnor.vanishing.{n}" for n in NAMES]),
    ("limit_dim", lambda tower: limit_dim(tower)._replace(dim=-1), suite.towers_checks,
     ["towers.identity_limit", "towers.iso_tail_pattern", "towers.zero_flagged"]),
], ids=["d", "map_form-kahler", "map_form-milnor", "dlog_realize", "limit_dim"])
def test_a_wrong_engine_fails_the_checks_that_read_it(monkeypatch, name, wrong, checks, failing):
    monkeypatch.setattr(suite, name, wrong)
    assert sorted(check for check, ok in checks() if not ok) == sorted(failing)


def test_the_rule_soundness_grid_realizes_within_the_crosscheck_bound(monkeypatch):
    """Each one-step replay of the grid is realized at an N of at least three
    times the widest sigma-span of its Laurent atoms, the bound crosscheck_dlog
    sets its own N by, and at least the order it projects to.  The grid used
    N = 8, under 3 * span for the 126 replays of span 3 or 4."""
    seen = []
    agreement = certify.ExtendedRealizer.agreement

    def recorded(self, states):
        spans = [poly.span() for st in states if st.order is None for _, sym in st.state.terms
                 for entry in sym.entries for poly, _ in entry.atoms]
        orders = [st.order for st in states if st.order is not None]
        seen.append((max(spans, default=0), max(orders, default=0), self.ring.ext_order - 1))
        return agreement(self, states)

    monkeypatch.setattr(certify.ExtendedRealizer, "agreement", recorded)
    assert all(ok for _, ok in suite.rule_soundness_checks())
    assert len(seen) == 477
    assert all(3 * span <= N and order <= N for span, order, N in seen)
    assert sum(3 * span > 8 for span, _, _ in seen) == 126
    assert Counter(N for _, _, N in seen) == {12: 477}
