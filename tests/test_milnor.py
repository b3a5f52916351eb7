import sys
from fractions import Fraction

import pytest

from milnork.algebra import (
    Algebra,
    AlgebraElement,
    AlgebraSpec,
    build_algebra,
    derived_algebra,
    quotient_mod_variable,
    transport,
    truncated_extension,
)
from milnork.errors import (
    AlgebraMismatch,
    NonUnitEntry,
    NotGeneratorShape,
    OutOfDomain,
    SigmaNotDesignated,
)
from milnork.certify import splitting_certificate, vanishing_certificate
from milnork.family import builtin_algebras
from milnork.kahler import decomposition_report, map_form, omega_module
from milnork.laurent import Symbol, SymbolCombination
from milnork.linalg import RowSpace
from milnork.milnor import (
    coefficient_samples,
    dlog_realize,
    make_symbol,
    relative_generators,
    relative_realize,
    span_check,
    tangent_realize,
    transport_check,
    unit_samples,
    vanishing_additivity_check,
)


def alg(variables, relations, **kw):
    return build_algebra(AlgebraSpec(tuple(variables), tuple(relations), **kw))


@pytest.fixture(scope="module")
def t3():
    return alg(["t"], ["t^3"])


def merged(a, b):
    """The sum of two combinations of one algebra and degree: their terms,
    merged by the constructor."""
    return SymbolCombination(a.algebra, a.degree, a.terms + b.terms)


def test_make_symbol_guards(t3):
    u, two = t3.element("1+t"), t3.element("2")
    s = make_symbol([u, two], Fraction(1, 2))
    assert len(s.terms) == 1 and s.terms[0][1].degree == 2
    assert s.terms[0][0] == Fraction(1, 2)
    assert s.terms[0][1].entries == (u, two)
    with pytest.raises(NonUnitEntry):
        make_symbol([t3.element("t"), u])


def test_combination_merges_value_equal_terms(t3):
    a = make_symbol([t3.element("1+t"), t3.element("2")], 1)
    # equal units, reached through other arithmetic
    u = t3.element("2") * t3.element("1/2") * t3.element("1+t")
    b = make_symbol([u, t3.element("4 - 2")], -1)
    assert u is not a.terms[0][1].entries[0]
    assert not merged(a, b)


def test_steinberg_and_friends_vanish(t3):
    two = t3.element("2")
    assert not dlog_realize(make_symbol([two, t3.one - two], 1))
    u = t3.element("3 + t")
    assert not dlog_realize(make_symbol([u, -u], 1))
    assert not dlog_realize(make_symbol([u, u], 1))


def test_spec_vanishing_example():
    A = alg(["t"], ["t^2"])
    B = truncated_extension(A, "sigma", 2)
    s = make_symbol([B.element("1 + t*sigma"), B.element("1 - sigma")], 1)
    assert not dlog_realize(s)


def test_steinberg_kills_in_higher_degree(t3):
    a = t3.element("2")
    v = t3.element("1 + t")
    assert not dlog_realize(make_symbol([a, t3.one - a, v], 1))
    assert not dlog_realize(make_symbol([a, -a, v], 1))
    assert not dlog_realize(make_symbol([v, a, -a], 1))


def test_slot_multiplicativity_and_antisymmetry(t3):
    u, v, w = t3.element("1+t"), t3.element("2 - t^2"), t3.element("3 + t")
    lhs = dlog_realize(make_symbol([u * v, w], 1))
    rhs = dlog_realize(make_symbol([u, w], 1)) + dlog_realize(make_symbol([v, w], 1))
    assert lhs == rhs
    assert dlog_realize(make_symbol([u, v], 1)) == -dlog_realize(make_symbol([v, u], 1))


# algebras where Omega^2 != 0, with three units each: the compared sides of
# multiplicativity and antisymmetry are 2-forms that need not vanish
OMEGA2_NONZERO = {
    "xy-m4": ((("x", "y"), tuple(f"x^{a}*y^{4 - a}" for a in range(5))), 6,
              ("1 + x", "2 - y^2 + x*y", "3 + y - x^2")),
    "xyz-squares": ((("x", "y", "z"), ("x^2", "y^2", "z^2")), 6,
                    ("1 + x + y*z", "2 - y", "3 + z - x*y")),
}


@pytest.mark.parametrize("name", sorted(OMEGA2_NONZERO))
def test_slot_multiplicativity_and_antisymmetry_where_omega2_is_nonzero(name):
    """Where Omega^2 = 0 both sides are always the zero form, so a realizer
    that adds a fixed 2-form passes; here at least one side is nonzero."""
    (variables, relations), omega2_dim, units = OMEGA2_NONZERO[name]
    A = alg(variables, relations)
    assert omega_module(A, 2).dimension == omega2_dim
    u, v, w = (A.element(text) for text in units)
    lhs = dlog_realize(make_symbol([u * v, w], 1))
    assert lhs == dlog_realize(make_symbol([u, w], 1)) + dlog_realize(make_symbol([v, w], 1))
    uv = dlog_realize(make_symbol([u, v], 1))
    assert uv == -dlog_realize(make_symbol([v, u], 1))
    assert lhs and uv


def test_realize_is_linear(t3):
    u, v = t3.element("1+t"), t3.element("2")
    s1 = make_symbol([u, v], Fraction(2, 3))
    s2 = make_symbol([v, u], Fraction(-1, 3))
    assert dlog_realize(merged(s1, s2)) == dlog_realize(s1) + dlog_realize(s2)


def test_generator_families_shape():
    Q = alg([], [])
    gens = relative_generators(Q, 1, 2, coeffs=["1"], units=["2"])
    assert [str(g) for g in gens] == ["1*{sigma + 1, 2}", "1*{sigma + 1, -sigma + 1}"]
    p3 = relative_generators(Q, 1, 3, coeffs=["1"], units=["2"])
    degrees = {g.terms[0][1].degree for g in p3}
    assert degrees == {3}
    assert list(relative_generators(Q, 1, 2, coeffs=[], units=[])) == []


def _family_as_listed(A, n, p, coeffs, units):
    """The family in its documented order, built by nested loops."""
    B = truncated_extension(A, "sigma", n + 1)
    sn = B.variable("sigma") ** n
    lifted = [transport(u, B) for u in units]

    def tails(k):
        out = [()]
        for _ in range(k):
            out = [prev + (u,) for prev in out for u in lifted]
        return out

    gens = [make_symbol([B.one + transport(c, B) * sn, *tail], 1)
            for c in coeffs for tail in tails(p - 1)]
    if p >= 2:
        gens += [make_symbol([B.one + transport(e, B) * sn, B.one - B.variable("sigma"), *tail], 1)
                 for e in coeffs if e.augmentation() for tail in tails(p - 2)]
    return gens


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_family_length_counts_what_iteration_builds(n, p):
    for _, A in builtin_algebras():
        cs, us = coefficient_samples(A), unit_samples(A)
        for coeffs, units in ((None, None), ([], None), (None, []), ([], [])):
            family = relative_generators(A, n, p, coeffs=coeffs, units=units)
            built = list(family)
            assert len(family) == len(built)
            expected = _family_as_listed(A, n, p, cs if coeffs is None else coeffs,
                                         us if units is None else units)
            assert [g.key() for g in built] == [g.key() for g in expected]
            assert [g.key() for g in family] == [g.key() for g in built]  # re-readable


def test_family_units_are_checked_when_it_is_built(t3):
    with pytest.raises(NonUnitEntry):
        relative_generators(t3, 1, 2, units=["t"])


def test_family_length_past_sys_maxsize_is_out_of_domain():
    """len() counts exactly up to sys.maxsize at any degree, and refuses a
    longer family without raising the unit count to a long tail's power."""
    Q = alg([], [])
    # one unit, no unit, and no tail: 2, 0 and 1 symbols
    assert len(relative_generators(Q, 1, 10**6, coeffs=["1"], units=["2"])) == 2
    assert len(relative_generators(Q, 1, 10**6, coeffs=["1"], units=[])) == 0
    assert len(relative_generators(Q, 1, 1, coeffs=["1"], units=[])) == 1
    # two units: 2^(p-1) + 2^(p-2) symbols, under sys.maxsize = 2^63 - 1 at p = 63
    assert len(relative_generators(Q, 1, 63, coeffs=["1"], units=["2", "3"])) == 3 * 2**61
    for p in (64, 10**6):
        with pytest.raises(OutOfDomain, match=f"^degree p = {p} makes more generators than "
                                              f"the limit of {sys.maxsize}$"):
            len(relative_generators(Q, 1, p, coeffs=["1"], units=["2", "3"]))


@pytest.mark.parametrize("n, p", [(1, 2), (2, 3)])
def test_family_entries_are_units_of_the_extension(t3, n, p):
    family = relative_generators(t3, n, p)
    B = truncated_extension(t3, "sigma", n + 1)
    for g in family:
        (_, sym), = g.terms
        assert all(isinstance(e, AlgebraElement) and e.algebra is B and e.augmentation()
                   for e in sym.entries)


def test_realizing_a_family_inverts_each_unit_once(monkeypatch):
    from milnork import kahler

    calls = {}
    invert = kahler.invert_unit

    def counting(algebra, u):
        calls[u.key()] = calls.get(u.key(), 0) + 1
        return invert(algebra, u)

    monkeypatch.setattr(kahler, "invert_unit", counting)
    A = alg(["x", "y"], [f"x^{a}*y^{4 - a}" for a in range(5)])
    gens = relative_generators(A, 2, 3)
    verdict = span_check([relative_realize(g, 2) for g in gens], omega_module(A, 2))
    assert (verdict.rank, verdict.dim, len(gens)) == (6, 6, 1221)
    assert calls and max(calls.values()) == 1
    assert len(calls) <= len(unit_samples(A))


def test_relative_realize_examples(t3):
    B = truncated_extension(t3, "sigma", 2)
    s = make_symbol([B.element("1 + t*sigma"), B.element("1 + t")], 1)
    f = relative_realize(s, 1)
    assert f.coords == {1: Fraction(1)}  # t * dlog(1+t) = t dt
    s0 = make_symbol([B.element("1 + sigma"), B.element("2")], 1)
    assert not relative_realize(s0, 1)
    sv = make_symbol([B.element("1 + sigma"), B.element("1 - sigma")], 1)
    assert not relative_realize(sv, 1)


def test_relative_realize_rejects_bad_shapes(t3):
    # one case per path, each with its exact message
    B = truncated_extension(t3, "sigma", 2)
    B3 = truncated_extension(t3, "sigma", 3)
    cases = [
        (make_symbol([B.element("1 + t"), B.element("2")], 1),
         "first slot of {t + 1, 2} is not 1 + c*sigma^1"),
        (make_symbol([B.element("1 + t*sigma"), B.element("1 + sigma")], 1),
         "slot sigma + 1 is not sigma-free"),
        (make_symbol([t3.element("1+t"), t3.element("2")], 1),
         "combination does not live in a truncated extension"),
        (make_symbol([B3.element("1 + t*sigma^2"), B3.element("2")], 1),
         "expected truncation order 2, got 3"),
    ]
    for comb, message in cases:
        with pytest.raises(NotGeneratorShape) as err:
            relative_realize(comb, 1)
        assert str(err.value) == message


def test_relative_realize_rejects_a_symbol_of_another_ring(t3):
    # its slots would be read at that ring's level, not at n
    B, B3 = truncated_extension(t3, "sigma", 2), truncated_extension(t3, "sigma", 3)
    for first in ("1 + t*sigma", "1 + t*sigma^2"):
        comb = SymbolCombination(B, 2, [(1, Symbol((B3.element(first), B3.element("1 + t"))))])
        with pytest.raises(AlgebraMismatch, match="does not live in the combination's algebra"):
            relative_realize(comb, 1)


def test_relative_realize_scales_and_adds_terms(t3):
    B = truncated_extension(t3, "sigma", 2)
    a = make_symbol([B.element("1 + t*sigma"), B.element("1 + t")], 1)
    b = make_symbol([B.element("1 + 2*sigma"), B.element("1 - t")], 1)
    fa, fb = relative_realize(a, 1), relative_realize(b, 1)
    assert fa and fb
    scaled = make_symbol([B.element("1 + t*sigma"), B.element("1 + t")], Fraction(3, 2))
    assert relative_realize(scaled, 1) == fa.scale(Fraction(3, 2))
    assert len(merged(a, b).terms) == 2
    assert relative_realize(merged(a, b), 1) == fa + fb


def test_relative_realize_skipping_every_term_gives_the_zero_form(t3):
    B = truncated_extension(t3, "sigma", 2)
    one_minus = B.element("1 - sigma")
    comb = merged(make_symbol([B.element("1 + t*sigma"), one_minus], 1),
                  make_symbol([B.element("1 + sigma"), one_minus], 2))
    for c in (comb, SymbolCombination(B, 2, [])):
        f = relative_realize(c, 1)
        assert not f.coords and f.module is omega_module(t3, 1)


def test_family_symbols_equal_the_general_construction(t3):
    gens = relative_generators(t3, 2, 2)
    for g in gens:
        (_, sym), = g.terms
        plain = SymbolCombination(gens.algebra, 2, [(1, sym)])
        assert g.terms == plain.terms and g == plain
        assert type(g.terms[0][0]) is type(plain.terms[0][0])


def test_realizing_a_family_classifies_each_slot_once(monkeypatch):
    # one memo lookup per slot and one for the wedge; the family's ring-level
    # data is not looked up per generator
    A = alg(["x", "y", "z"], [f"x^{a}*y^{b}*z^{4 - a - b}"
                              for a in range(5) for b in range(5 - a)])
    gens = relative_generators(A, 2, 3)
    calls = []
    memo = Algebra.memo

    def counting(self, table, *args):
        calls.append(table)
        return memo(self, table, *args)

    monkeypatch.setattr(Algebra, "memo", counting)
    forms = [relative_realize(g, 2) for g in gens]
    assert len(forms) == 8841
    assert len(calls) <= 4.2 * len(forms)
    B = gens.algebra
    assert "slot_layers" not in B._memo and "one_minus" not in B._memo
    assert len(B._memo["slots"]) == 42  # 20 first slots, 1 - s and 21 units


def test_realizing_a_family_builds_each_slot_and_wedge_once(monkeypatch):
    """The slot and wedge memos key by the elements themselves: they build one
    entry per distinct slot and per distinct tuple of units, however many
    generators share it, and a second pass over the family builds nothing."""
    from milnork import milnor

    built = {"slots": 0, "wedges": 0}
    classify, wedge_of = milnor._classify_slot, milnor._dlog_wedge

    def counted_slot(entry):
        built["slots"] += 1
        return classify(entry)

    def counted_wedge(algebra, units):
        built["wedges"] += 1
        return wedge_of(algebra, units)

    monkeypatch.setattr(milnor, "_classify_slot", counted_slot)
    monkeypatch.setattr(milnor, "_dlog_wedge", counted_wedge)
    A = alg(["x", "y"], [f"x^{a}*y^{4 - a}" for a in range(5)])
    gens = relative_generators(A, 2, 3)
    one_minus = gens.algebra.element("1 - sigma").key()
    slots, wedges = set(), set()
    for g in gens:  # the slots relative_realize reads: up to the first 1 - s
        (_, sym), = g.terms
        keys = [e.key() for e in sym.entries]
        cut = keys.index(one_minus) + 1 if one_minus in keys else len(keys)
        slots.update(keys[:cut])
        if one_minus not in keys:
            wedges.add(tuple(keys[1:]))
    first = [relative_realize(g, 2) for g in gens]
    assert (built["slots"], built["wedges"]) == (len(slots), len(wedges)) == (22, 121)
    assert [relative_realize(g, 2) for g in gens] == first
    assert (built["slots"], built["wedges"]) == (22, 121)


def test_equal_slots_of_two_extensions_share_no_memo_entry():
    """Two algebras built from one spec give two extensions: an element of
    either is a key of its own, and each realizes in its own module."""
    spec = AlgebraSpec(("x", "y"), ("x^2", "x*y", "y^2"))
    forms = []
    for A in (build_algebra(spec), build_algebra(spec)):
        gens = relative_generators(A, 1, 2)
        forms.append([relative_realize(g, 1) for g in gens])
        B = gens.algebra
        assert all(e.algebra is B for e in B._memo["slots"])
        assert all(u.algebra is A for units in A._memo["dlog_wedges"] for u in units)
    assert [f.coords for f in forms[0]] == [f.coords for f in forms[1]]
    assert forms[0][0].module is not forms[1][0].module
    assert all(f != g for f, g in zip(*forms))


def test_a_symbol_of_elements_over_two_algebras_is_refused(t3):
    B = truncated_extension(t3, "sigma", 2)
    for entries in ((t3.element("1 + t"), B.element("1 + t")),
                    (B.element("1 + t*sigma"), B.element(2), t3.element(2))):
        with pytest.raises(AlgebraMismatch) as err:
            Symbol(entries)
        assert str(err.value) == "symbol entries over different algebras"
    assert Symbol(()).degree == 0 and Symbol((B.one,)).algebra is B


def test_relative_realize_degree_one(t3):
    # degree-1 classes land in Omega^0 = A as the leading coefficient itself
    B = truncated_extension(t3, "sigma", 2)
    s = make_symbol([B.element("1 + t*sigma")], 1)
    f = relative_realize(s, 1)
    assert f.module.degree == 0
    expected = omega_module(t3, 0).form(t3.element("t").coords)
    assert f == expected


def test_relative_ranks_spec_case(t3):
    for n in (1, 2):
        gens = relative_generators(t3, n, 2)
        forms = [relative_realize(g, n) for g in gens]
        verdict = span_check(forms, omega_module(t3, 1))
        assert verdict.spans and verdict.rank == 2


def test_tangent_realize(t3):
    T = truncated_extension(t3, "eps", 2)
    s = make_symbol([T.element("1 + 3*eps"), T.element("2")], 1)
    assert not tangent_realize(s)
    s2 = make_symbol([T.element("1 + t*eps"), T.element("1 + t")], 1)
    assert tangent_realize(s2).coords == {1: Fraction(1)}
    s3 = make_symbol([T.element("1 + eps"), T.element("1 + t")], Fraction(1, 2))
    assert tangent_realize(merged(s2, s3)) == tangent_realize(s2) + tangent_realize(s3)
    # a 1 - eps slot sends the term to zero, whatever the slots after it
    assert not tangent_realize(make_symbol([T.element("1 + t*eps"), T.element("1 - eps")], 1))
    assert not tangent_realize(make_symbol([T.element("1 + eps"), T.element("1 - eps"),
                                            T.element("1 + t*eps")], 1))
    T3 = truncated_extension(t3, "eps", 3)
    with pytest.raises(NotGeneratorShape, match="expected truncation order 2, got 3"):
        tangent_realize(make_symbol([T3.element("1 + eps"), T3.element("2")], 1))


def test_tangent_span_spec_example(t3):
    T = truncated_extension(t3, "eps", 2)
    eps = T.variable("eps")
    targets = []
    for c in ("1", "t", "t^2"):
        first = T.one + T.element(c) * eps
        for u in ("1+t", "2", "1-t"):
            targets.append(tangent_realize(make_symbol([first, T.element(u)], 1)))
    verdict = span_check(targets, omega_module(t3, 1))
    assert verdict.spans and verdict.rank == 2 and len(verdict.certificate) == 2


def test_span_check_edges(t3):
    zero_module = omega_module(t3, 2)
    assert span_check([], zero_module).spans
    M = omega_module(t3, 1)
    v = span_check([M.form()], M)
    assert not v.spans and v.rank == 0
    with pytest.raises(AlgebraMismatch, match="target form lives in a different module"):
        span_check([omega_module(alg(["t"], ["t^4"]), 1).form()], M)


def test_span_check_stops_at_full_rank(t3):
    M = omega_module(t3, 1)
    forms = [tangent_realize(g) for g in relative_generators(t3, 1, 2)]
    space, raised = RowSpace(), []
    for idx, form in enumerate(forms):
        if space.insert(dict(form.coords)) is not None:
            raised.append(idx)
    read = []

    def targets():
        for form in forms:
            read.append(form)
            yield form

    verdict = span_check(targets(), M)
    assert verdict.spans and verdict.certificate == tuple(raised)
    assert len(read) == raised[-1] + 1 < len(forms)
    read.clear()
    assert span_check(targets(), omega_module(t3, 2)).spans and not read


def test_additivity_identity():
    for A in (alg([], []), alg(["t"], ["t^2"])):
        for n in (1, 2, 3):
            for c1 in coefficient_samples(A):
                for c2 in unit_samples(A):
                    assert vanishing_additivity_check(A, c1, c2, n)


def test_projection_compatibility(t3):
    big = truncated_extension(t3, "sigma", 3)
    small = truncated_extension(t3, "sigma", 2)
    sig_b, sig_s = big.variable("sigma"), small.variable("sigma")
    for u in unit_samples(t3):
        s_b = make_symbol([big.one + transport(t3.element("t"), big) * sig_b,
                           transport(u, big)], 1)
        s_s = make_symbol([small.one + transport(t3.element("t"), small) * sig_s,
                           transport(u, small)], 1)
        assert map_form(dlog_realize(s_b), small) == dlog_realize(s_s)


def test_transport_check_spec_cases():
    B1 = alg(["sigma"], ["sigma^4"], distinguished="sigma")
    r1 = transport_check(B1, 2)
    assert r1.ok and r1.surjective and not r1.degenerate
    B2 = alg(["t", "sigma"], ["t^2", "sigma^3", "t*sigma"], distinguished="sigma")
    r2 = transport_check(B2, 2)
    assert r2.ok and r2.kernel_dim == 1 and r2.tensor_target_dim == 1
    r3 = transport_check(B2, 3)
    assert r3.degenerate and r3.tensor_target_dim == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variables, relations", [
    (["sigma"], ["sigma^4"]),
    (["t", "sigma"], ["t^2", "sigma^3", "t*sigma"]),
], ids=["sigma4", "mixed"])
def test_tau_sends_each_first_entry_to_its_layer_row(variables, relations, n):
    """Why transport_check finds every sample's c' in the span of its layer:
    tau(1 + c lam^n) - 1 = tau(c) * sigma^n in B/sigma^(n+1), the row that
    the layer holds for each coefficient sample c of A' = B/sigma."""
    B = alg(variables, relations, distinguished="sigma")
    Ap = quotient_mod_variable(B, "sigma")
    Bn1 = derived_algebra(B, B.names, B.spec.relations + (f"sigma^{n + 1}",), "sigma")
    dom_full = truncated_extension(Ap, "sigma", n + 1)
    lam_n, sigma_n = dom_full.variable("sigma") ** n, Bn1.variable("sigma") ** n
    for c in coefficient_samples(Ap):
        first = dom_full.one + transport(c, dom_full) * lam_n
        assert transport(first, Bn1) - Bn1.one == transport(c, Bn1) * sigma_n


def test_transport_check_requires_sigma(t3):
    with pytest.raises(SigmaNotDesignated):
        transport_check(t3, 1)


def test_level_and_degree_checks_are_typed(t3):
    B = alg(["t", "sigma"], ["t^2", "sigma^3", "t*sigma"], distinguished="sigma")
    cases = [
        (lambda: relative_generators(t3, 0, 2), "generator families need level n >= 1"),
        (lambda: relative_generators(t3, 2, 0), "generator families need degree p >= 1"),
        (lambda: transport_check(B, 0), "transport checks need n >= 1"),
        (lambda: splitting_certificate(t3, 2, 0), "certificates need level n >= 1"),
        (lambda: vanishing_certificate(t3, 2, -1), "certificates need level n >= 1"),
        (lambda: decomposition_report(t3, 0, 1), "need n >= 1 and p >= 1"),
    ]
    for call, message in cases:
        with pytest.raises(OutOfDomain) as exc:
            call()
        assert str(exc.value) == message
