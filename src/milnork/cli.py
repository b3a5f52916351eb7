"""Command-line front end.

Exit codes: 0 on success and valid verdicts, 1 when a verdict fails
(certificate invalid, span or transport check false), 2 on input or usage
errors.  Reports are deterministic; the record format never carries
timestamps.
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
from .errors import MilnorkError, ParseError
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


def _load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return build_algebra(parse_algebra_file(fh.read()))


def _emit(report, args, exit_code):
    text = report.render(args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return exit_code


def _cmd_algebra_info(args):
    A = _load_algebra(args.algebra)
    rep = Report("algebra-info")
    rep.add("algebra.variables", ",".join(A.names) or "-")
    rep.add("algebra.dimension", A.dimension)
    rep.add("algebra.basis", ";".join(A.monomial_strings()))
    rep.add("algebra.groebner", ";".join(polynomial_str(g, A.names) for g in A.groebner) or "0")
    rep.add("algebra.sigma", A.spec.distinguished or "-")
    return _emit(rep, args, 0)


def _cmd_omega(args):
    if args.p < 0:
        raise _Usage("--p must be nonnegative")
    A = _load_algebra(args.algebra)
    M = omega_module(A, args.p)
    rep = Report(f"omega^{args.p}")
    rep.add("omega.p", args.p)
    rep.add("omega.dim", M.dimension)
    rep.add("omega.basis", ";".join(M.label(i) for i in range(M.dimension)) or "-")
    return _emit(rep, args, 0)


def _cmd_decomposition(args):
    A = _load_algebra(args.algebra)
    out = decomposition_report(A, args.n, args.p)
    rep = Report("decomposition").extend(out.record())
    return _emit(rep, args, 0 if out.verdict != "neither" else 1)


def _cmd_phi(args):
    A = _load_algebra(args.algebra)
    gens = relative_generators(A, args.n, args.p)
    rep = Report("relative-generators")
    rep.add("phi.n", args.n)
    rep.add("phi.p", args.p)
    rep.add("phi.count", len(gens))
    for i, g in enumerate(gens):
        rep.add(f"phi.gen.{i:03d}", str(g))
    return _emit(rep, args, 0)


def _cmd_theorem2(args):
    A = _load_algebra(args.algebra)
    gens = relative_generators(A, args.n, args.p)
    M = omega_module(A, args.p - 1)
    verdict = span_check((relative_realize(g, args.n) for g in gens), M)
    rep = Report("relative-realization").extend(verdict.record())
    rep.add("theorem2.generators", len(gens))
    return _emit(rep, args, 0 if verdict.spans else 1)


def _cmd_tangent_span(args):
    A = _load_algebra(args.algebra)
    gens = relative_generators(A, 1, args.p)
    M = omega_module(A, args.p - 1)
    verdict = span_check((tangent_realize(g) for g in gens), M)
    rep = Report("tangent-span").extend(verdict.record())
    return _emit(rep, args, 0 if verdict.spans else 1)


def _cmd_certify(args, builder):
    if args.load:
        with open(args.load, "r", encoding="utf-8") as fh:
            cert = certificate_from_json(fh.read())
    else:
        A = _load_algebra(args.algebra)
        c = A.element(args.c)
        cert = builder(A, c, args.n)
    verdict = check_certificate(cert)
    rep = Report("certificate")
    rep.add("certificate.claim_lhs", str(cert.claim_lhs))
    rep.add("certificate.claim_rhs", str(cert.claim_rhs))
    rep.extend(verdict.record())
    code = 0 if verdict.valid else 1
    if verdict.valid:
        cross = crosscheck_dlog(cert, precision=args.precision)
        rep.extend(cross.record())
        if not cross.all_agree:
            code = 1
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(certificate_to_json(cert))
        rep.add("certificate.saved", args.save)
    return _emit(rep, args, code)


def _cmd_tau(args):
    A = _load_algebra(args.algebra)
    out = transport_check(A, args.n)
    rep = Report("tau-transport").extend(out.record())
    return _emit(rep, args, 0 if out.ok else 1)


def _cmd_tower(args):
    with open(args.tower, "r", encoding="utf-8") as fh:
        tower = parse_tower_file(fh.read())
    rep = Report("tower")
    rep.add("tower.levels", tower.length)
    rep.add("tower.dims", ",".join(str(d) for d in tower.dims))
    surj = surjectivity_check(tower)
    rep.add("tower.surjective", ",".join("true" if s else "false" for s in surj) or "-")
    for level in ml_window_check(tower):
        rep.extend(level.record())
    rep.extend(limit_dim(tower).record())
    return _emit(rep, args, 0)


def _cmd_suite(args):
    checks, passed, failed = run_suite(args.name)
    rep = Report(f"suite:{args.name}")
    for cname, ok in checks:
        rep.add(f"check.{cname}", "pass" if ok else "fail")
    rep.add("summary.checks", len(checks))
    rep.add("summary.passed", passed)
    rep.add("summary.failed", failed)
    return _emit(rep, args, 0 if failed == 0 else 1)


class _Usage(Exception):
    pass


def _add_common(sub, algebra=True):
    if algebra:
        sub.add_argument("--algebra", required=True, help="algebra spec file")
    sub.add_argument("--format", choices=("text", "record"), default="text",
                     help="output format (default: text)")
    sub.add_argument("--output", help="write the report to this path instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="milnork",
        description="Exact computer algebra for truncated local Q-algebras, "
                    "differential forms, symbol realizations, and certificates.")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("algebra-info", help="basis, dimension, Groebner data")
    _add_common(s)
    s.set_defaults(func=_cmd_algebra_info)

    s = subs.add_parser("omega", help="dimension and basis of Omega^p")
    _add_common(s)
    s.add_argument("--p", type=whole, required=True)
    s.set_defaults(func=_cmd_omega)

    s = subs.add_parser("decomposition", help="splitting dimensions for Omega^p of A[s]/s^n")
    _add_common(s)
    s.add_argument("--n", type=whole, required=True)
    s.add_argument("--p", type=whole, required=True)
    s.set_defaults(func=_cmd_decomposition)

    s = subs.add_parser("phi", help="generator families for the relative kernel")
    _add_common(s)
    s.add_argument("--n", type=whole, required=True)
    s.add_argument("--p", type=whole, required=True)
    s.set_defaults(func=_cmd_phi)

    s = subs.add_parser("theorem2", help="span rank of realized relative generators")
    _add_common(s)
    s.add_argument("--n", type=whole, required=True)
    s.add_argument("--p", type=whole, required=True)
    s.set_defaults(func=_cmd_theorem2)

    s = subs.add_parser("tangent-span", help="span rank of realized tangent symbols")
    _add_common(s)
    s.add_argument("--p", type=whole, required=True)
    s.set_defaults(func=_cmd_tangent_span)

    for cmd, builder in (("certify-eq7", splitting_certificate),
                         ("certify-eq8", vanishing_certificate)):
        s = subs.add_parser(cmd, help="build and verify the bundled certificate chain")
        s.add_argument("--algebra", help="algebra spec file")
        _add_common(s, algebra=False)
        s.add_argument("--c", help="unit coefficient expression; one that starts "
                                   "with '-' is written --c=-1+t")
        s.add_argument("--n", type=whole, help="level of the relative kernel")
        s.add_argument("--precision", type=whole, default=None,
                       help="crosscheck truncation order (default 3(n+2))")
        s.add_argument("--save", help="write the certificate as JSON")
        s.add_argument("--load", help="check a saved certificate instead of building one")
        s.set_defaults(func=lambda a, b=builder: _cmd_certify(a, b))

    s = subs.add_parser("tau", help="transport checks for sigma inside the algebra")
    _add_common(s)
    s.add_argument("--n", type=whole, required=True)
    s.set_defaults(func=_cmd_tau)

    s = subs.add_parser("tower", help="surjectivity, image chains, window limit")
    s.add_argument("--tower", required=True, help="tower input file")
    _add_common(s, algebra=False)
    s.set_defaults(func=_cmd_tower)

    s = subs.add_parser("suite", help="run a bundled verification grid")
    s.add_argument("name", choices=("all",) + SUITE_NAMES)
    _add_common(s, algebra=False)
    s.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command in ("certify-eq7", "certify-eq8") and not args.load:
            if not (args.algebra and args.c is not None and args.n is not None):
                raise _Usage("certify needs --algebra, --c and --n (or --load)")
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MilnorkError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
