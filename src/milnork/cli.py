"""Command-line front end.

_COMMANDS declares every command once: its name, function, help and
arguments, in the order --help lists them.  A command's function takes the
algebra of --algebra (None when the command has no such option or is given
--load) and the arguments, and returns (report, holds).  main alone checks
usage, loads the spec, writes the report to stdout or --output, and picks
the exit code: 0 when the verdict holds, 1 when it fails (certificate
invalid, span or transport check false), 2 on input or usage errors.
Usage errors are raised before any file is read.  Reports are
deterministic; the record format never carries timestamps.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import AlgebraSpec, build_algebra
from .certify import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    crosscheck_dlog,
    splitting_certificate,
    vanishing_certificate,
)
from .errors import MilnorkError, OutOfDomain, ParseError
from .expr import polynomial_str
from .kahler import decomposition_report, omega_module
from .linalg import whole
from .milnor import (
    relative_generators,
    relative_realize,
    span_check,
    tangent_realize,
    transport_check,
)
from .report import Report
from .suite import SUITE_NAMES, run_suite
from .towers import limit_dim, ml_window_check, parse_tower_file, surjectivity_check


def _read_input(path):
    """The text of an input file; bytes that are not UTF-8 are a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc)) from None


def parse_algebra_file(text):
    """Key/value algebra spec: variables, relations, optional sigma and order, once each."""
    data = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"algebra file line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in ("variables", "relations", "sigma", "order"):
            raise ParseError(f"algebra file line {lineno}: unknown key {key!r}")
        if key in data:
            raise ParseError(f"algebra file line {lineno}: repeated key {key!r}")
        data[key] = value.strip()
    variables = tuple(v.strip() for v in data.get("variables", "").split(",") if v.strip())
    relations = tuple(r.strip() for r in data.get("relations", "").split(",") if r.strip())
    sigma = data.get("sigma") or None
    if "order" in data:
        if sigma is None:
            raise ParseError("algebra file: 'order' needs a 'sigma' entry")
        try:
            order = whole(data["order"])
        except ValueError as exc:
            raise ParseError(f"algebra file: bad order: {exc}") from None
        if order < 1:
            raise ParseError("algebra file: order must be >= 1")
        relations = relations + (f"{sigma}^{order}",)
    return AlgebraSpec(variables=variables, relations=relations, distinguished=sigma)


def _cmd_algebra_info(A, args):
    rep = Report("algebra-info")
    rep.add("algebra.variables", ",".join(A.names) or "-")
    rep.add("algebra.dimension", A.dimension)
    rep.add("algebra.basis", ";".join(A.monomial_strings()))
    rep.add("algebra.groebner", ";".join(polynomial_str(g, A.names) for g in A.groebner) or "0")
    rep.add("algebra.sigma", A.spec.distinguished or "-")
    return rep, True


def _cmd_omega(A, args):
    M = omega_module(A, args.p)
    rep = Report(f"omega^{args.p}")
    rep.add("omega.p", args.p)
    rep.add("omega.dim", M.dimension)
    rep.add("omega.basis", ";".join(M.label(i) for i in range(M.dimension)) or "-")
    return rep, True


def _cmd_decomposition(A, args):
    out = decomposition_report(A, args.n, args.p)
    return Report("decomposition").extend(out.record()), out.verdict != "neither"


# phi builds its whole report before writing it, so it lists at most this
# many generators: over Q[t]/t^3 at n = 1, p = 8 lists 53,248 and p = 9 would list 212,992
PHI_ROW_BUDGET = 100_000


def _cmd_phi(A, args):
    gens = relative_generators(A, args.n, args.p)
    count = len(gens)
    if count > PHI_ROW_BUDGET:
        raise OutOfDomain(f"phi lists at most {PHI_ROW_BUDGET} generators; degree p = {args.p} "
                          f"at level n = {args.n} makes {count}")
    rep = Report("relative-generators")
    rep.add("phi.n", args.n)
    rep.add("phi.p", args.p)
    rep.add("phi.count", count)
    for i, g in enumerate(gens):
        rep.add(f"phi.gen.{i:03d}", str(g))
    return rep, True


def _cmd_theorem2(A, args):
    gens = relative_generators(A, args.n, args.p)
    M = omega_module(A, args.p - 1)
    verdict = span_check((relative_realize(g, args.n) for g in gens), M)
    rep = Report("relative-realization").extend(verdict.record())
    rep.add("theorem2.generators", len(gens))
    return rep, verdict.spans


def _cmd_tangent_span(A, args):
    gens = relative_generators(A, 1, args.p)
    M = omega_module(A, args.p - 1)
    verdict = span_check((tangent_realize(g) for g in gens), M)
    return Report("tangent-span").extend(verdict.record()), verdict.spans


def _cmd_certify(A, args, builder):
    if args.load:
        cert = certificate_from_json(_read_input(args.load))
    else:
        cert = builder(A, A.element(args.c), args.n)
    verdict = check_certificate(cert)
    rep = Report("certificate")
    rep.add("certificate.claim_lhs", str(cert.claim_lhs))
    rep.add("certificate.claim_rhs", str(cert.claim_rhs))
    rep.extend(verdict.record())
    holds = verdict.valid
    if holds:
        cross = crosscheck_dlog(cert)
        rep.extend(cross.record())
        holds = cross.all_agree
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(certificate_to_json(cert))
        rep.add("certificate.saved", args.save)
    return rep, holds


def _cmd_tau(A, args):
    out = transport_check(A, args.n)
    return Report("tau-transport").extend(out.record()), out.ok


def _cmd_tower(A, args):
    tower = parse_tower_file(_read_input(args.tower))
    rep = Report("tower")
    rep.add("tower.levels", tower.length)
    rep.add("tower.dims", ",".join(str(d) for d in tower.dims))
    surj = surjectivity_check(tower)
    rep.add("tower.surjective", ",".join("true" if s else "false" for s in surj) or "-")
    for level in ml_window_check(tower):
        rep.extend(level.record())
    rep.extend(limit_dim(tower).record())
    return rep, True


def _cmd_suite(A, args):
    checks, passed, failed = run_suite(args.name)
    rep = Report(f"suite:{args.name}")
    for cname, ok in checks:
        rep.add(f"check.{cname}", "pass" if ok else "fail")
    rep.add("summary.checks", len(checks))
    rep.add("summary.passed", passed)
    rep.add("summary.failed", failed)
    return rep, failed == 0


def _whole(text):
    """`whole` as an option type: argparse would print a bad value in full."""
    try:
        return whole(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid whole value: {exc}") from None


_ALGEBRA = ("--algebra", {"required": True, "help": "algebra spec file"})
_REPORT = (("--format", {"choices": ("text", "record"), "default": "text",
                         "help": "output format (default: text)"}),
           ("--output", {"help": "write the report to this path instead of stdout"}))
_N = ("--n", {"type": _whole, "required": True})
_P = ("--p", {"type": _whole, "required": True})
_CERTIFY = (
    ("--algebra", {"help": "algebra spec file"}), *_REPORT,
    ("--c", {"help": "unit coefficient expression; one that starts with '-' is written "
                     "--c=-1+t"}),
    ("--n", {"type": _whole, "help": "level of the relative kernel; crosscheck N >= 3(n+2)"}),
    ("--save", {"help": "write the certificate as JSON"}),
    ("--load", {"help": "check a saved certificate instead of building one"}))

_COMMANDS = (
    ("algebra-info", _cmd_algebra_info, "basis, dimension, Groebner data",
     (_ALGEBRA, *_REPORT)),
    ("omega", _cmd_omega, "dimension and basis of Omega^p", (_ALGEBRA, *_REPORT, _P)),
    ("decomposition", _cmd_decomposition, "splitting dimensions for Omega^p of A[s]/s^n",
     (_ALGEBRA, *_REPORT, _N, _P)),
    ("phi", _cmd_phi, "generator families for the relative kernel",
     (_ALGEBRA, *_REPORT, _N, _P)),
    ("theorem2", _cmd_theorem2, "span rank of realized relative generators",
     (_ALGEBRA, *_REPORT, _N, _P)),
    ("tangent-span", _cmd_tangent_span, "span rank of realized tangent symbols",
     (_ALGEBRA, *_REPORT, _P)),
    ("certify-eq7", lambda A, args: _cmd_certify(A, args, splitting_certificate),
     "build and verify the bundled certificate chain", _CERTIFY),
    ("certify-eq8", lambda A, args: _cmd_certify(A, args, vanishing_certificate),
     "build and verify the bundled certificate chain", _CERTIFY),
    ("tau", _cmd_tau, "transport checks for sigma inside the algebra",
     (_ALGEBRA, *_REPORT, _N)),
    ("tower", _cmd_tower, "surjectivity, image chains, window limit",
     (("--tower", {"required": True, "help": "tower input file"}), *_REPORT)),
    ("suite", _cmd_suite, "run a bundled verification grid",
     (("name", {"choices": ("all",) + SUITE_NAMES}), *_REPORT)),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="milnork",
        description="Exact computer algebra for truncated local Q-algebras, "
                    "differential forms, symbol realizations, and certificates.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, arguments in _COMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(func=func)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    usage = None
    if args.command in ("certify-eq7", "certify-eq8") and not args.load:
        if not (args.algebra and args.c is not None and args.n is not None):
            usage = "certify needs --algebra, --c and --n (or --load)"
    if args.command == "omega" and args.p < 0:
        usage = "--p must be nonnegative"
    if usage:
        print(f"usage error: {usage}", file=sys.stderr)
        return 2
    try:
        A = None
        if getattr(args, "algebra", None) and not getattr(args, "load", None):
            A = build_algebra(parse_algebra_file(_read_input(args.algebra)))
        report, holds = args.func(A, args)
        text = report.render(args.format)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if holds else 1
    except (OSError, MilnorkError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
