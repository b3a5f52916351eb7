"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything is exact: no tolerances anywhere, all comparisons are on
Fractions, dimensions, and canonical forms.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from milnork.algebra import AlgebraSpec, build_algebra
from milnork.certify import (
    RewriteStep,
    check_certificate,
    crosscheck_dlog,
    splitting_certificate,
    vanishing_certificate,
)
from milnork.family import builtin_algebras
from milnork.kahler import decomposition_report, omega_module
from milnork.laurent import LaurentPolynomial
from milnork.milnor import (
    dlog_realize,
    make_symbol,
    relative_generators,
    relative_realize,
    span_check,
    unit_samples,
)
from milnork.suite import _steinberg_pool, _tower_examples
from milnork.towers import Tower, limit_dim, ml_window_check, surjectivity_check


SUITE_RECORD_SHA256 = "2851c0bad627dd9f975a917f9d121b49644aa9b72b206bbe98bde0c194b81771"


def _announce(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_kahler_dimension_family():
    for m in range(2, 7):
        A = build_algebra(AlgebraSpec(("t",), (f"t^{m}",)))
        assert omega_module(A, 1).dimension == m - 1
    XY = build_algebra(AlgebraSpec(("x", "y"), ("x^2", "x*y", "y^2")))
    assert omega_module(XY, 2).dimension == 1
    _announce(1, "Kahler dimension family")


def test_criterion_2_omega1_splitting():
    for name, A in builtin_algebras():
        dim_a = A.dimension
        dim_omega1_a = omega_module(A, 1).dimension
        for n in (2, 3, 4):
            # the generic presentation: truncated_extension's closed form
            # splits Omega^1 by construction
            ext = build_algebra(AlgebraSpec(A.names + ("sigma",),
                                            A.spec.relations + (f"sigma^{n}",)))
            direct = omega_module(ext, 1).dimension
            line = build_algebra(AlgebraSpec(("sigma",), (f"sigma^{n}",)))
            expected = dim_omega1_a * n + dim_a * omega_module(line, 1).dimension
            assert direct == expected, (name, n)
    _announce(2, "Omega^1 splitting dimensions")


def test_criterion_3_second_summand_resolution():
    literal_failures = 0
    for name, A in builtin_algebras():
        has_forms = omega_module(A, 1).dimension > 0
        for n in (2, 3, 4):
            rep = decomposition_report(A, n, 2)
            if has_forms:
                assert rep.eq6_corrected_dim == rep.direct_dim, (name, n)
            if rep.eq6_literal_dim != rep.direct_dim:
                literal_failures += 1
    pinned = decomposition_report(builtin_algebras()[1][1], 2, 2)
    assert pinned.direct_dim == 1 and pinned.eq6_literal_dim == 0
    assert literal_failures >= 1
    _announce(3, "second-summand resolution, literal reading fails")


def test_criterion_4_steinberg_soundness_grid():
    instances = 0
    for name, A in builtin_algebras():
        for a in _steinberg_pool(A):
            for sym in (make_symbol([a, A.one - a], 1),
                        make_symbol([a, -a], 1),
                        make_symbol([a, a], 1)):
                instances += 1
                assert not dlog_realize(sym), (name, str(a))
    assert instances >= 100
    _announce(4, f"Steinberg soundness on {instances} instances")


def test_criterion_5_certificates_grid():
    checked = 0
    for name, A in builtin_algebras():
        for n in (1, 2, 3):
            for c in unit_samples(A):
                cert7 = splitting_certificate(A, c, n)
                v7 = check_certificate(cert7)
                assert v7.valid, (name, n, str(c))
                x7 = crosscheck_dlog(cert7)
                assert x7.all_agree, (name, n, str(c))

                cert8 = vanishing_certificate(A, c, n)
                v8 = check_certificate(cert8)
                assert v8.valid, (name, n, str(c))
                x8 = crosscheck_dlog(cert8)
                assert x8.all_agree and x8.final_realization_zero, (name, n, str(c))

                checked += 1

    # negative control: corrupt one step payload, rejection at that index
    Q = builtin_algebras()[0][1]
    cert = vanishing_certificate(Q, 1, 1)
    idx = next(i for i, s in enumerate(cert.steps) if s.rule == "entry_identity")
    step = cert.steps[idx]
    bad_atoms = [(poly + LaurentPolynomial.constant(Q, 1), exp)
                 for poly, exp in step.payload["atoms"]]
    bad = cert._replace(steps=tuple(
        RewriteStep(s.rule, s.position, {**s.payload, "atoms": bad_atoms}) if i == idx else s
        for i, s in enumerate(cert.steps)))
    verdict = check_certificate(bad)
    assert not verdict.valid and verdict.failure_index == idx
    _announce(5, f"certificate chains on {checked} contexts plus negative control")


def test_criterion_6_surjectivity_ranks():
    for name, A in builtin_algebras():
        for p in (2, 3):
            target = omega_module(A, p - 1)
            for n in range(1, 5):
                gens = relative_generators(A, n, p)
                forms = [relative_realize(g, n) for g in gens]
                verdict = span_check(forms, target)
                assert verdict.rank == target.dimension, (name, p, n)
    _announce(6, "realized generators span the differential side")


def test_criterion_7_sigma_transport():
    from milnork.milnor import transport_check

    B1 = build_algebra(AlgebraSpec(("sigma",), ("sigma^4",), distinguished="sigma"))
    r1 = transport_check(B1, 2)
    assert r1.surjective and r1.multiplicative and r1.compatible

    B2 = build_algebra(AlgebraSpec(("t", "sigma"), ("t^2", "sigma^3", "t*sigma"),
                                   distinguished="sigma"))
    r2 = transport_check(B2, 2)
    assert r2.surjective and r2.multiplicative and r2.compatible
    _announce(7, "transport checks for sigma inside the algebra")


def test_criterion_8_towers():
    surj = Tower.build([1, 2, 3, 3],
                       [[[1, 0]], [[1, 0, 0], [0, 1, 0]],
                        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    assert all(surjectivity_check(surj))
    for level in ml_window_check(surj):
        assert level.stabilized and level.offset in (0, None)

    iso = Tower.identity(3, 4)
    rep = limit_dim(iso)
    assert rep.dim == iso.dims[0] == 3 and rep.stabilized

    examples = _tower_examples()
    assert len(examples) == 10
    for T in examples:
        rep = limit_dim(T)
        assert rep.stabilized and rep.dim == T.dims[-1]
    _announce(8, "tower stabilization and window limits")


def test_criterion_9_determinism(tmp_path):
    """One run in this process, one in a fresh interpreter under another hash
    seed; both records are byte-identical and carry the pinned hash."""
    import milnork
    from milnork.cli import main

    out1 = tmp_path / "run1.rec"
    code1 = main(["suite", "all", "--format", "record", "--output", str(out1)])
    src = str(Path(milnork.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run2 = subprocess.run([sys.executable, "-m", "milnork", "suite", "all", "--format", "record"],
                          env=env, capture_output=True, check=False)
    assert code1 == run2.returncode == 0
    first, second = out1.read_bytes(), run2.stdout
    assert first == second
    assert hashlib.sha256(first).hexdigest() == SUITE_RECORD_SHA256
    assert b"summary.failed=0" in first
    _announce(9, "byte-identical machine-readable suite reports across processes")
