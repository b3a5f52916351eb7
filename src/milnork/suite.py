"""Bundled verification grids over the built-in algebra family.

Each suite returns (name, passed) pairs; the CLI renders them as a
deterministic report.  Grids are fixed and never randomized, so two runs
produce byte-identical records.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraSpec, build_algebra, transport, truncated_extension
from .certify import (
    Replay,
    RewriteStep,
    check_certificate,
    crosscheck_dlog,
    shared_realizer,
    splitting_certificate,
    vanishing_certificate,
    vanishing_from,
)
from .family import builtin_algebras
from .kahler import d, decomposition_report, map_form, omega_module
from .laurent import LaurentPolynomial, Symbol, SymbolCombination
from .milnor import (
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
from .towers import Tower, limit_dim, ml_window_check, surjectivity_check

SUITE_NAMES = ("kahler", "milnor", "certify", "towers")


def _steinberg_pool(algebra):
    """Units a with 1 - a also a unit: scaled copies of the unit grid."""
    out = []
    for q in (2, 3, Fraction(1, 2), -1):
        for u in unit_samples(algebra):
            a = u * q
            if (algebra.one - a).augmentation():
                out.append(a)
    return out


def kahler_checks():
    checks = []
    fam = builtin_algebras()
    for name, A in fam:
        checks.append((f"kahler.dim_omega0.{name}",
                       omega_module(A, 0).dimension == A.dimension))
    for m in range(2, 7):
        Am = build_algebra(AlgebraSpec(("t",), (f"t^{m}",)))
        checks.append((f"kahler.dim_family.m{m}", omega_module(Am, 1).dimension == m - 1))
    Axy = fam[4][1]
    checks.append(("kahler.dim_omega2_xy", omega_module(Axy, 2).dimension == 1))

    for name, A in fam:
        ext = truncated_extension(A, "sigma", 2)
        for alg_name, alg in ((name, A), (name + "[s]/s^2", ext)):
            elements = [alg.basis_element(i) for i in range(alg.dimension)]
            ok = not any(d(d(x)) for x in elements + omega_module(alg, 1).basis_forms())
            checks.append((f"kahler.dd_zero.{alg_name}", ok))

    for name, A in fam:
        ok = True
        samples = unit_samples(A) + coefficient_samples(A)
        pairs = [(samples[i], samples[(i * 3 + 1) % len(samples)]) for i in range(len(samples))]
        for a, b in pairs:
            if d(a * b) != d(b).act(a) + d(a).act(b):
                ok = False
        checks.append((f"kahler.leibniz.{name}", ok))

    for name, A in fam:
        for n in (2, 3, 4):
            rep = decomposition_report(A, n, 1)
            checks.append((f"kahler.eq5.{name}.n{n}", rep.verdict == "match"))
            rep2 = decomposition_report(A, n, 2)
            checks.append((f"kahler.eq6.{name}.n{n}",
                           rep2.eq6_corrected_dim == rep2.direct_dim))
    lit = decomposition_report(fam[1][1], 2, 2)
    checks.append(("kahler.eq6_literal_fails", lit.eq6_literal_dim != lit.direct_dim
                   and lit.direct_dim == 1 and lit.eq6_literal_dim == 0))

    # projection commutes with d on basis elements
    for name, A in fam:
        big = truncated_extension(A, "sigma", 3)
        small = truncated_extension(A, "sigma", 2)
        ok = True
        for i in range(big.dimension):
            e = big.basis_element(i)
            lhs = map_form(d(e), small)
            rhs = d(transport(e, small))
            if lhs != rhs:
                ok = False
        checks.append((f"kahler.functorial_d.{name}", ok))
    return checks


def milnor_checks():
    checks = []
    fam = builtin_algebras()

    count = 0
    all_zero = True
    for name, A in fam:
        for a in _steinberg_pool(A):
            one_minus = A.one - a
            s1 = make_symbol([a, one_minus], 1)
            s2 = make_symbol([a, -a], 1)
            s3 = make_symbol([a, a], 1)
            for s in (s1, s2, s3):
                count += 1
                if dlog_realize(s):
                    all_zero = False
    checks.append(("milnor.steinberg_kills", all_zero))
    checks.append(("milnor.steinberg_grid_size", count >= 100))

    for name, A in fam[:4]:
        us = unit_samples(A)
        ok = True
        for i, u in enumerate(us):
            v = us[(i + 1) % len(us)]
            w = us[(i + 2) % len(us)]
            lhs = dlog_realize(make_symbol([u * v, w], 1))
            rhs = dlog_realize(make_symbol([u, w], 1)) + dlog_realize(make_symbol([v, w], 1))
            if lhs != rhs:
                ok = False
            if dlog_realize(make_symbol([u, v], 1)) != -dlog_realize(make_symbol([v, u], 1)):
                ok = False
        checks.append((f"milnor.multiplicativity.{name}", ok))

    for name, A in fam:
        for p in (2, 3):
            for n in range(1, 5):
                gens = relative_generators(A, n, p)
                M = omega_module(A, p - 1)
                verdict = span_check((relative_realize(g, n) for g in gens), M)
                checks.append((f"milnor.rank.{name}.p{p}.n{n}", verdict.spans))

    for name, A in fam:
        ok = True
        for n in range(1, 5):
            B = truncated_extension(A, "sigma", n + 1)
            sig = B.variable("sigma")
            for c in coefficient_samples(A):
                s = make_symbol([B.one - sig, B.one - transport(c, B) * sig ** n], 1)
                if dlog_realize(s):
                    ok = False
        checks.append((f"milnor.vanishing.{name}", ok))

    for name, A in fam:
        ok = True
        n = 2
        big = truncated_extension(A, "sigma", n + 1)
        small = truncated_extension(A, "sigma", n)
        sig = big.variable("sigma")
        ssig = small.variable("sigma")
        for c in coefficient_samples(A)[:3]:
            for u in unit_samples(A):
                s_big = make_symbol(
                    [big.one + transport(c, big) * sig, transport(u, big)], 1)
                lhs = map_form(dlog_realize(s_big), small)
                s_small = make_symbol(
                    [small.one + transport(c, small) * ssig, transport(u, small)], 1)
                rhs = dlog_realize(s_small)
                if lhs != rhs:
                    ok = False
        checks.append((f"milnor.projection_compat.{name}", ok))

    for name, A in fam[:4]:
        ok = all(vanishing_additivity_check(A, c1, c2, n)
                 for n in (1, 2)
                 for c1 in coefficient_samples(A)
                 for c2 in coefficient_samples(A))
        checks.append((f"milnor.additivity.{name}", ok))

    for name, A in fam:
        for p in (2, 3):
            targets = (tangent_realize(g) for g in relative_generators(A, 1, p))
            verdict = span_check(targets, omega_module(A, p - 1))
            checks.append((f"milnor.tangent_rank.{name}.p{p}", verdict.spans))

    B1 = build_algebra(AlgebraSpec(("sigma",), ("sigma^4",), distinguished="sigma"))
    r1 = transport_check(B1, 2)
    checks.append(("milnor.tau.sigma4", r1.ok))
    B2 = build_algebra(AlgebraSpec(("t", "sigma"), ("t^2", "sigma^3", "t*sigma"),
                                   distinguished="sigma"))
    r2 = transport_check(B2, 2)
    checks.append(("milnor.tau.mixed", r2.ok))
    r3 = transport_check(B2, 3)
    checks.append(("milnor.tau.degenerate", r3.degenerate and r3.surjective))
    return checks


def certify_checks():
    checks = []
    fam = builtin_algebras()
    for name, A in fam:
        for n in (1, 2, 3):
            for ci, c in enumerate(unit_samples(A)):
                cert7 = splitting_certificate(A, c, n)
                v7 = check_certificate(cert7)
                x7 = crosscheck_dlog(cert7)
                checks.append((f"certify.eq7.{name}.n{n}.c{ci}",
                               v7.valid and x7.all_agree))
                cert8 = vanishing_from(cert7)
                v8 = check_certificate(cert8)
                x8 = crosscheck_dlog(cert8)
                checks.append((f"certify.eq8.{name}.n{n}.c{ci}",
                               v8.valid and x8.all_agree and x8.final_realization_zero))

    # corrupted-certificate negative control: break one side condition
    Q = fam[0][1]
    cert = vanishing_certificate(Q, 1, 1)
    broken_idx = next(i for i, s in enumerate(cert.steps) if s.rule == "entry_identity")
    bad_steps = list(cert.steps)
    step = bad_steps[broken_idx]
    bad_atoms = [(poly + LaurentPolynomial.constant(Q, 1), exp)
                 for poly, exp in step.payload["atoms"]]
    bad_steps[broken_idx] = RewriteStep(step.rule, step.position,
                                        {**step.payload, "atoms": bad_atoms})
    bad = cert._replace(steps=tuple(bad_steps))
    vb = check_certificate(bad)
    xb = crosscheck_dlog(bad)
    first_bad = next((i for i, r, ok in xb.steps if not ok), None)
    checks.append(("certify.negative_control",
                   not vb.valid and vb.failure_index == broken_idx
                   and not xb.all_agree and first_bad == broken_idx))

    checks.extend(rule_soundness_checks())
    return checks


def _small_contexts():
    fam = builtin_algebras()
    return [fam[0], fam[1], fam[4]]


def rule_soundness_checks():
    """Deterministic instance grids: each accepted step preserves the dlog
    realization exactly (>= 50 instances per rule kind).  Every instance is a
    one-step replay, compared by the crosscheck's own Replay.agreement."""
    agree = {}

    def run(A, terms, rule, position, payload, small_ring=None):
        replay = Replay(SymbolCombination(A, 2, terms))
        replay.rewrite(rule, position, payload)
        agree.setdefault(rule, []).extend(replay.agreement(shared_realizer(A, 8), small_ring)[0])

    for name, A in _small_contexts():
        one = LaurentPolynomial.constant(A, 1)
        sig = LaurentPolynomial.sigma(A)
        units = unit_samples(A)
        for u in units:
            u0 = LaurentPolynomial(A, {0: u})
            for j in (1, 2, 3):
                cs = LaurentPolynomial(A, {j: u})
                sym_st = Symbol.from_atoms(A, ([(cs, 1)], [(one - cs, 1)]))
                run(A, [(1, sym_st)], "steinberg", {"term": 0}, {"mode": "remove"})
                run(A, [], "steinberg", {}, {"mode": "insert", "coeff": "3", "symbol": sym_st})

                sym_ma = Symbol.from_atoms(A, ([(cs, 1)], [(-cs, 1)]))
                run(A, [(1, sym_ma)], "minus_arg", {"term": 0}, {"mode": "remove"})
                run(A, [], "minus_arg", {}, {"mode": "insert", "coeff": "-2", "symbol": sym_ma})

                v0 = LaurentPolynomial(A, {0: units[0]})
                sym_bi = Symbol.from_atoms(A, ([(u0, 1), (v0, 1)], [(one - sig, 1)]))
                run(A, [(2, sym_bi)], "bilinearity", {"term": 0, "slot": 0},
                    {"mode": "split", "at": 1})
                half1 = ([(u0, 1)], [(one - sig, 1)])
                half2 = ([(v0, 1)], [(one - sig, 1)])
                if u0.key() != v0.key():
                    run(A, [(2, Symbol.from_atoms(A, h)) for h in (half1, half2)], "bilinearity",
                        {"term": half1, "term2": half2, "slot": 0}, {"mode": "merge"})
                sym_one = Symbol.from_atoms(A, ([(one - sig, 1)], [(u0, 1), (u0, -1)]))
                run(A, [(1, sym_one)], "bilinearity", {"term": 0, "slot": 1}, {"mode": "kill"})
                run(A, [], "bilinearity", {}, {"mode": "insert", "coeff": "5",
                                               "symbol": sym_one, "slot": 1})

                sym_inv = Symbol.from_atoms(A, ([(u0, 1)], [(one - cs, j)]))
                run(A, [(1, sym_inv)], "inverse_negation", {"term": 0, "slot": 1}, {})
                run(A, [(1, sym_inv)], "inverse_negation", {"term": 0, "slot": 0}, {})

                sym_ts = Symbol.from_atoms(A, ([(u0, 1)], [(one - cs, 2 * j)]))
                run(A, [(1, sym_ts)], "torsion_scale", {"term": 0, "slot": 1},
                    {"mode": "unpack", "m": 2})
                run(A, [(1, sym_ts)], "torsion_scale", {"term": 0, "slot": 1},
                    {"mode": "pack", "m": 3})

                prod = u0.mul(one - cs)
                sym_ef = Symbol.from_atoms(A, ([(prod, 1)], [(one - sig, 1)]))
                run(A, [(1, sym_ef)], "entry_factor", {"term": 0, "slot": 0},
                    {"atoms": [(u0, 1), (one - cs, 1)]})
                sym_ef2 = Symbol.from_atoms(A, ([(u0, 1), (one - cs, 1)], [(one - sig, 1)]))
                run(A, [(1, sym_ef2)], "entry_factor", {"term": 0, "slot": 0},
                    {"atoms": [(prod, 1)]})
                w = one + cs
                sym_ei = Symbol.from_atoms(A, ([(one - sig, 1), (w, 1)], [(one - sig, 1)]))
                target = (one - sig).mul(w)
                run(A, [(1, sym_ei)], "entry_identity", {"term": 0, "slot": 0},
                    {"atoms": [(target, 1)]})
                sym_ei2 = Symbol.from_atoms(A, ([(target, 1)], [(one - sig, 1)]))
                run(A, [(1, sym_ei2)], "entry_identity", {"term": 0, "slot": 0},
                    {"atoms": [(one - sig, 1), (w, 1)]})

                # projection of order-zero atoms, both forms read in A[s]/s^(j+2)
                sym_pr = Symbol.from_atoms(A, ([(one - sig, 1)], [(one - cs, 1)]))
                for q in (1, -3):
                    run(A, [(q, sym_pr)], "projection", {}, {"order": j + 1},
                        truncated_extension(A, "sigma", j + 2))

    return [(f"certify.rule_soundness.{kind}",
             len(agree.get(kind, ())) >= 50 and all(agree[kind]))
            for kind in ("bilinearity", "steinberg", "minus_arg", "inverse_negation",
                         "torsion_scale", "entry_factor", "entry_identity", "projection")]


def _tower_examples():
    """Ten towers that are isomorphisms from some level on, plus edge cases."""
    towers = []
    for d in (1, 2, 3):
        towers.append(Tower.identity(d, 4))
    surj = Tower.build([1, 2, 2, 2], [[[1, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    towers.append(surj)
    drop = Tower.build([2, 2, 2, 2],
                       [[[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [0, 1]]])
    towers.append(drop)
    towers.append(Tower.build([1, 1, 1, 1, 1], [[[2]], [[3]], [[1]], [[1]]]))
    towers.append(Tower.build([2, 2, 2, 2, 2],
                              [[[0, 1], [1, 0]]] + [[[1, 0], [0, 1]]] * 3))
    towers.append(Tower.build([3, 2, 2, 2],
                              [[[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]]))
    towers.append(Tower.build([1, 2, 2], [[[1, 1]], [[1, 0], [0, 1]]]))
    towers.append(Tower.build([2, 3, 3, 3],
                              [[[1, 0, 0], [0, 1, 0]],
                               [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]))
    return towers


def towers_checks():
    checks = []
    ident = Tower.identity(3, 3)
    checks.append(("towers.identity_surjective", all(surjectivity_check(ident))))
    checks.append(("towers.identity_offsets",
                   all(r.stabilized and (r.offset in (0, None)) for r in ml_window_check(ident))))
    rep = limit_dim(ident)
    checks.append(("towers.identity_limit", rep.dim == 3 and rep.stabilized))

    surj = Tower.build([1, 2, 3, 4],
                       [[[1, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]])
    checks.append(("towers.surjective_maps", all(surjectivity_check(surj))))
    checks.append(("towers.surjective_offset0",
                   all(r.stabilized and r.offset == 0 for r in ml_window_check(surj)
                       if r.ranks)))

    spec_example = Tower.build([2, 2, 2, 2],
                               [[[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [0, 0]]])
    lvl0 = ml_window_check(spec_example)[0]
    checks.append(("towers.spec_offset1", lvl0.ranks == (2, 1, 1) and lvl0.offset == 1))

    shrink = Tower.build([4, 3, 2, 1],
                         [[[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]],
                          [[1, 0], [0, 1], [0, 0]],
                          [[1], [0]]])
    checks.append(("towers.window_honesty",
                   any(not r.stabilized for r in ml_window_check(shrink))))

    zero = Tower.build([3, 3, 3], [[[0] * 3] * 3, [[0] * 3] * 3])
    zrep = limit_dim(zero)
    checks.append(("towers.zero_flagged", zrep.dim == 3 and not zrep.stabilized))

    ok_pattern = True
    examples = _tower_examples()
    for i, T in enumerate(examples):
        rep = limit_dim(T)
        if rep.dim != T.dims[-1] or not rep.stabilized:
            ok_pattern = False
    checks.append(("towers.iso_tail_pattern", ok_pattern and len(examples) == 10))

    inj = Tower.build([2, 2], [[[1, 0], [0, 1]]])
    grown = Tower.build([2, 2, 2], [[[1, 0], [0, 1]], [[1, 0], [0, 1]]])
    checks.append(("towers.monotone_append",
                   limit_dim(grown).dim <= limit_dim(inj).dim))
    return checks


def run_suite(name):
    """Run one suite (or all); returns (checks, passed, failed)."""
    if name == "all":
        checks = []
        for sub in SUITE_NAMES:
            checks.extend(run_suite(sub)[0])
    elif name == "kahler":
        checks = kahler_checks()
    elif name == "milnor":
        checks = milnor_checks()
    elif name == "certify":
        checks = certify_checks()
    elif name == "towers":
        checks = towers_checks()
    else:
        raise ValueError(f"unknown suite {name!r}")
    checks = sorted(checks)
    passed = sum(1 for _, ok in checks if ok)
    return checks, passed, len(checks) - passed
