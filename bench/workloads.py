"""The benchmark's three workloads, their seeded inputs and their pinned verdicts.

Each workload has an ``inputs(seed)`` that returns plain data (made before
the first job, so it counts as set-up) and a ``run(inputs, spans)`` that
executes the jobs through milnork's public API and returns one verdict per
job.  Calls go through module attributes (``certify.check_certificate``),
so a traced run sees the calls the benchmark itself makes.  Why each
workload exists is in README.md next to this file.
"""

import contextlib
import hashlib
import io
import random

from milnork import algebra, certify, cli, kahler, milnor, suite

SUITE_RECORD_SHA256 = "2851c0bad627dd9f975a917f9d121b49644aa9b72b206bbe98bde0c194b81771"
SUITE_CHECKS = 315

_M4_XY = tuple(f"x^{a}*y^{4 - a}" for a in range(5))
_M4_XYZ = tuple(f"x^{a}*y^{b}*z^{4 - a - b}" for a in range(5) for b in range(5 - a))

# name -> (variables, relations)
ALGEBRAS = {
    "Q[t]/t^3": (("t",), ("t^3",)),
    "Q[x,y]/(x,y)^2": (("x", "y"), ("x^2", "x*y", "y^2")),
    "Q[x,y]/m^4": (("x", "y"), _M4_XY),
    "Q[x,y,z]/(x^2,y^2,z^2)": (("x", "y", "z"), ("x^2", "y^2", "z^2")),
    "Q[x,y,z]/m^4": (("x", "y", "z"), _M4_XYZ),
    "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)": (
        ("x", "y", "z"), ("x^2+y^2+z^2", "x*y-z^2", "y*z", "x^3")),
}

RANK_N = 2
# (algebra, p) -> (rank, dim, generators); rank == dim means spans=true.
RANK_EXPECTED = {
    ("Q[x,y]/m^4", 2): (15, 15, 111),
    ("Q[x,y]/m^4", 3): (6, 6, 1221),
    ("Q[x,y,z]/(x^2,y^2,z^2)", 2): (12, 12, 73),
    ("Q[x,y,z]/(x^2,y^2,z^2)", 3): (6, 6, 657),
    ("Q[x,y,z]/m^4", 2): (45, 45, 421),
    ("Q[x,y,z]/m^4", 3): (36, 36, 8841),
    ("Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)", 2): (9, 9, 57),
    ("Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)", 3): (4, 4, 456),
}
# algebra dimension, which fixes the sizes of the default coefficient
# (dim) and unit (dim + 1) grids that the seed permutes
RANK_DIMS = {"Q[x,y]/m^4": 10, "Q[x,y,z]/(x^2,y^2,z^2)": 8, "Q[x,y,z]/m^4": 20,
             "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)": 7}

CERT_ALGEBRAS = ("Q[t]/t^3", "Q[x,y]/(x,y)^2", "Q[x,y,z]/(x^2+y^2+z^2,xy-z^2,yz,x^3)",
                 "Q[x,y,z]/(x^2,y^2,z^2)", "Q[x,y]/m^4")
CERT_LEVELS = (2, 8, 12)
CERT_BUILDERS = {7: "splitting_certificate", 8: "vanishing_certificate"}


def _spec(name):
    variables, relations = ALGEBRAS[name]
    return algebra.AlgebraSpec(variables, relations)


def _unit_pool(name):
    """Units +-1 +- v, v the first variable.  Other variables and constants
    change the cost of the heaviest certificate by up to 40%, which would make
    max_job_s depend on the seed rather than on the code."""
    v = ALGEBRAS[name][0][0]
    return [f"{a}{sign}{v}" for a in (1, -1) for sign in "+-"]


# -- suite-all ------------------------------------------------------------------


def suite_inputs(seed):
    return {"argv": ["suite", "all", "--format", "record"]}


@contextlib.contextmanager
def _suite_spans(spans):
    """Time each sub-suite as one job by rebinding suite.<name>_checks."""
    originals = {name: getattr(suite, f"{name}_checks") for name in suite.SUITE_NAMES}

    def timed(name, fn):
        def run():
            with spans.span(f"suite.{name}", "job"):
                return fn()
        return run

    for name, fn in originals.items():
        setattr(suite, f"{name}_checks", timed(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(suite, f"{name}_checks", fn)


def suite_run(inputs, spans):
    out = io.StringIO()
    with spans.span("milnork " + " ".join(inputs["argv"]), "command"):
        with _suite_spans(spans), contextlib.redirect_stdout(out):
            code = cli.main(list(inputs["argv"]))
    record = out.getvalue()
    digest = hashlib.sha256(record.encode()).hexdigest()
    rows = dict(line.partition("=")[::2] for line in record.splitlines())
    verdicts = [(key, value == "pass", value) for key, value in rows.items()
                if key.startswith("check.")]
    count = (len(verdicts), rows.get("summary.checks"))
    verdicts.append(("summary.checks", count == (SUITE_CHECKS, str(SUITE_CHECKS)), count))
    verdicts.append(("exit_code", code == 0, code))
    verdicts.append(("record.sha256", digest == SUITE_RECORD_SHA256, digest))
    return verdicts


# -- rank-ladder ----------------------------------------------------------------


def rank_inputs(seed):
    rng = random.Random(seed)
    jobs = []
    for (name, p) in RANK_EXPECTED:
        dim = RANK_DIMS[name]
        coeffs = list(range(dim))
        units = list(range(dim + 1))
        rng.shuffle(coeffs)
        rng.shuffle(units)
        jobs.append({"algebra": name, "p": p, "coeffs": coeffs, "units": units})
    return {"n": RANK_N, "jobs": jobs}


def rank_run(inputs, spans):
    n = inputs["n"]
    verdicts = []
    for job in inputs["jobs"]:
        name, p = job["algebra"], job["p"]
        with spans.span(f"theorem2 {name} p={p}", "job"):
            A = algebra.build_algebra(_spec(name))
            cs = milnor.coefficient_samples(A)
            us = milnor.unit_samples(A)
            with spans.span("generate"):
                gens = milnor.relative_generators(
                    A, n, p, coeffs=[cs[i] for i in job["coeffs"]],
                    units=[us[i] for i in job["units"]])
            with spans.span("realize"):
                forms = [milnor.relative_realize(g, n) for g in gens]
            with spans.span("span"):
                verdict = milnor.span_check(forms, kahler.omega_module(A, p - 1))
        got = (verdict.rank, verdict.dim, len(gens))
        ok = verdict.spans and got == RANK_EXPECTED[(name, p)]
        verdicts.append((f"{name}.p{p}", ok, [*got, list(verdict.certificate)]))
    return verdicts


# -- certify-ladder -------------------------------------------------------------


def certify_inputs(seed):
    rng = random.Random(seed)
    jobs = []
    for name in CERT_ALGEBRAS:
        pool = _unit_pool(name)
        for n in CERT_LEVELS:
            for eq in CERT_BUILDERS:
                jobs.append({"algebra": name, "n": n, "eq": eq, "c": rng.choice(pool)})
    return {"jobs": jobs}


def certify_run(inputs, spans):
    verdicts = []
    for job in inputs["jobs"]:
        name, n, eq = job["algebra"], job["n"], job["eq"]
        builder = getattr(certify, CERT_BUILDERS[eq])
        with spans.span(f"eq{eq} {name} n={n}", "job"):
            with spans.span("build"):
                A = algebra.build_algebra(_spec(name))
                cert = builder(A, job["c"], n)
            with spans.span("check"):
                checked = certify.check_certificate(cert)
            with spans.span("crosscheck"):
                cross = certify.crosscheck_dlog(cert)
            with spans.span("json"):
                text = certify.certificate_to_json(cert)
                loaded = certify.certificate_from_json(text)
                rechecked = certify.check_certificate(loaded)
                lossless = certify.certificate_to_json(loaded) == text
        got = {"valid": checked.valid, "all_agree": cross.all_agree,
               "final_zero": cross.final_realization_zero,
               "reloaded_valid": rechecked.valid, "lossless": lossless,
               "steps": len(cert.steps), "precision": cross.precision}
        ok = (checked.valid and cross.all_agree and rechecked.valid and lossless
              and (eq == 7 or cross.final_realization_zero))
        verdicts.append((f"eq{eq}.{name}.n{n}.c={job['c']}", ok, got))
    return verdicts


WORKLOADS = {
    "suite-all": (suite_inputs, suite_run),
    "rank-ladder": (rank_inputs, rank_run),
    "certify-ladder": (certify_inputs, certify_run),
}
