"""The benchmark's own code, read from bench/ and never modified.

The traced benchmark run wraps the functions that bench/calltrace.py names
in TARGETS; a rename or deletion in milnork must not silently break it.  The
rank-ladder workload's verdicts, witness lists included, are pinned here so
that a speedup on the theorem2 path cannot change them unnoticed.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

import pytest

from milnork.algebra import build_algebra
from milnork.kahler import omega_module
from milnork.milnor import (
    coefficient_samples,
    relative_generators,
    relative_realize,
    span_check,
    unit_samples,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load("calltrace").TARGETS
    assert targets
    for prefix, modname, path in targets:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            assert part in vars(owner), (prefix, modname, path)
            owner = vars(owner)[part]
        assert callable(owner), (prefix, modname, path)


# span_check witness indices per rank-ladder job; they are part of the
# verdict, so a speedup must leave every one of them in place
RANK_WITNESSES = {
    1: {
        "Q[x,y]/m^4.p2": [9, 18, 20, 51, 53, 62, 64, 66, 68, 72, 73, 74, 75, 76, 97],
        "Q[x,y]/m^4.p3": [546, 610, 623, 632, 667, 669],
        "Q[x,y,z]/(x^2,y^2,z^2).p2": [2, 3, 4, 9, 11, 12, 13, 14, 16, 17, 22, 30],
        "Q[x,y,z]/(x^2,y^2,z^2).p3": [5, 21, 22, 23, 32, 113],
        "Q[x,y,z]/m^4.p2": [2, 12, 26, 33, 44, 46, 47, 48, 49, 54, 56, 58, 65, 68, 69, 70, 75,
                            84, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100,
                            101, 107, 128, 132, 133, 135, 138, 143, 159, 170, 233, 238],
        "Q[x,y,z]/m^4.p3": [2, 4, 9, 11, 18, 207, 443, 444, 445, 449, 450, 452, 459, 487, 492,
                            494, 501, 508, 522, 648, 1766, 1767, 1772, 1773, 1775, 1782, 1815,
                            1824, 1845, 1971, 4860, 4869, 5058, 7947, 7956, 8145],
        "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3).p2": [3, 4, 6, 19, 22, 38, 51, 52, 54],
        "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3).p3": [10, 12, 20, 74],
    },
    2: {
        "Q[x,y]/m^4.p2": [1, 5, 8, 9, 23, 27, 31, 34, 42, 67, 75, 89, 97, 100, 108],
        "Q[x,y]/m^4.p3": [50, 257, 268, 292, 534, 897],
        "Q[x,y,z]/(x^2,y^2,z^2).p2": [0, 1, 2, 4, 5, 6, 7, 11, 18, 19, 20, 29],
        "Q[x,y,z]/(x^2,y^2,z^2).p3": [1, 3, 7, 11, 12, 84],
        "Q[x,y,z]/m^4.p2": [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                            28, 38, 40, 49, 61, 63, 65, 67, 69, 70, 71, 72, 73, 74, 76, 77, 78,
                            79, 80, 88, 90, 91, 93, 94, 98, 100],
        "Q[x,y,z]/m^4.p3": [267, 332, 477, 708, 710, 773, 920, 941, 1149, 1151, 1214, 1592,
                            2472, 2474, 2537, 3354, 3356, 3419, 3795, 3797, 3860, 4438, 4443,
                            4444, 4446, 4448, 4469, 4486, 4490, 4569, 4574, 4675, 4677, 4679,
                            4742, 5624],
        "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3).p2": [8, 10, 11, 12, 14, 15, 28, 31, 47],
        "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3).p3": [1, 7, 15, 71],
    },
}


@pytest.mark.parametrize("seed", sorted(RANK_WITNESSES))
def test_rank_ladder_verdicts_pinned(seed):
    workloads = _load("workloads")
    spans = _load("calltrace").Spans(None)
    verdicts = workloads.rank_run(workloads.rank_inputs(seed), spans)
    assert len(verdicts) == len(workloads.RANK_EXPECTED) == 8
    for name, ok, got in verdicts:
        assert ok, (name, got)
    assert {name: got[3] for name, _, got in verdicts} == RANK_WITNESSES[seed]


@pytest.mark.parametrize("seed", sorted(RANK_WITNESSES))
def test_rank_ladder_verdicts_from_a_generator(seed):
    # span_check reads realizations on demand and stops at full rank; the
    # verdicts must be the ones pinned above from the benchmark's lists
    workloads = _load("workloads")
    inputs = workloads.rank_inputs(seed)
    n = inputs["n"]
    for job in inputs["jobs"]:
        name, p = job["algebra"], job["p"]
        A = build_algebra(workloads._spec(name))
        cs, us = coefficient_samples(A), unit_samples(A)
        gens = relative_generators(A, n, p, coeffs=[cs[i] for i in job["coeffs"]],
                                   units=[us[i] for i in job["units"]])
        verdict = span_check((relative_realize(g, n) for g in gens), omega_module(A, p - 1))
        assert verdict.spans
        assert (verdict.rank, verdict.dim, len(gens)) == workloads.RANK_EXPECTED[(name, p)]
        assert list(verdict.certificate) == RANK_WITNESSES[seed][f"{name}.p{p}"]


# sha256 over every realized form of the rank-ladder jobs at seeds 1 and 2,
# one line "seed|job|generator index|module degree|sorted coords" per form;
# RANK_WITNESSES sees only the rank increments, this sees every form
REALIZED_FORMS = (23674, "d64b41d4fa0ffd5926a5c34a490fb726e1573ad00d2757cb1e55bce0c6c3e14a")


def test_rank_ladder_realized_forms_pinned():
    workloads = _load("workloads")
    digest = hashlib.sha256()
    count = 0
    for seed in sorted(RANK_WITNESSES):
        inputs = workloads.rank_inputs(seed)
        n = inputs["n"]
        for job in inputs["jobs"]:
            name, p = job["algebra"], job["p"]
            A = build_algebra(workloads._spec(name))
            cs, us = coefficient_samples(A), unit_samples(A)
            gens = relative_generators(A, n, p, coeffs=[cs[i] for i in job["coeffs"]],
                                       units=[us[i] for i in job["units"]])
            module = omega_module(A, p - 1)
            for idx, g in enumerate(gens):
                form = relative_realize(g, n)
                assert form.module is module
                coords = ",".join(f"{k}:{v}" for k, v in sorted(form.coords.items()))
                digest.update(f"{seed}|{name}.p{p}|{idx}|{form.module.degree}|{coords}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == REALIZED_FORMS


def test_certify_ladder_verdicts_hold():
    # eq7 and eq8 at n = 2, 8 and 12 on the benchmark's five algebras: no
    # other test builds them there, so a broken verdict would otherwise show
    # first in the benchmark's own correctness gate
    workloads = _load("workloads")
    spans = _load("calltrace").Spans(None)
    verdicts = workloads.certify_run(workloads.certify_inputs(5), spans)
    assert len(verdicts) == 30
    for name, ok, got in verdicts:
        assert ok, (name, got)
