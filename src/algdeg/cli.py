"""Command-line surface: dimension tables, spins, surveys, series, suites.

Exit codes: 0 all claims verified (or skipped), 1 some claim falsified,
2 usage error, 3 some claim inconclusive, 4 internal error (any other
exception; its traceback goes to stderr), so a crash never reads as a
falsified claim.
"""

import argparse
import json
import sys
import traceback

from . import canon, degen, gamma2, spinmx
from .gfield import make_field
from .report import Report, claim
from .structvec import StructureVector

DIM_ORDER = ("C", "K", "Mstar", "Mstarstar", "T", "Ttilde", "TcapTtilde", "N", "U")


def field_spec(text):
    """Accepts 'p' or 'p^k'."""
    try:
        if "^" in text:
            p, k = text.split("^")
            return make_field(int(p), int(k))
        return make_field(int(text))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad field spec {text!r}: {exc}")


def dimension_arg(text):
    n = int(text)
    if n < 3:
        raise argparse.ArgumentTypeError("the dimension must be at least 3")
    return n


def positive_int(text):
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def distinct_list(item):
    """An argparse type: comma-separated values parsed by `item`, none repeated."""

    def parse(text):
        values = [item(x) for x in text.split(",")]
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"repeated entry in {text!r}")
        return values

    return parse


def _field_label(ctx):
    return f"{ctx.char}^{ctx.degree}" if ctx.degree > 1 else str(ctx.char)


def parse_vector(text, ctx, n):
    """A named vector, or a JSON one whose field and n match the command's."""
    if not text.startswith("{"):
        return canon.named_vector(text, ctx, n)
    lam = StructureVector.from_json(json.loads(text))
    if lam.ctx != ctx or lam.n != n:
        raise ValueError(f"vector over {lam.ctx!r} with n = {lam.n} given to a command "
                         f"over {ctx!r} with n = {n}")
    return lam


def split_chain(text):
    """Split a chain spec on commas, except inside parenthesized points."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _small_field_guard(report, ctx, ids_anchors):
    if ctx.kind == "finite" and ctx.order <= 2:
        report.skip_all(ids_anchors, "|F| > 2 required")
        return True
    return False


def _timed_cell(report, tag, fn, *args):
    """report.timed for one grid cell: claim ids (and their timing record) get the tag."""

    def prefixed():
        claims = fn(*args)
        if isinstance(claims, dict):
            claims = [claims]
        for c in claims:
            c["id"] = f"{tag}.{c['id']}"
        return claims

    return report.timed(prefixed)


# -- subcommands ---------------------------------------------------------------

def dim_claim(bases, name):
    """The dimension of one canonical submodule against its closed form."""
    computed = bases[name].dim
    expected = canon.expected_dims(bases.n)[name]
    return claim(f"dim.{name}", f"dim {name} matches its closed form",
                 computed == expected, {"computed": computed, "expected": expected})


def cmd_dims(args):
    report = Report("dims", {"n": args.n, "field": _field_label(args.field)}, args.seed)
    ctx, n = args.field, args.n
    bases = canon.Bases(ctx, n)
    print(f"dimension table for n = {n} over {ctx!r}")
    for name in DIM_ORDER:
        (c,) = report.timed(dim_claim, bases, name)
        print(f"  {name:<12} dim {c['data']['computed']:>4}  [{c['status']}]")
    return report


def cmd_canon(args):
    report = Report("canon", {"n": args.n, "field": _field_label(args.field)}, args.seed)
    ctx, n = args.field, args.n
    if not _small_field_guard(report, ctx, [
            ("intersections", "intersection dictionary"),
            ("TmeetMstarstarBiconditional", "trace-kernel symmetry")]):
        bases = canon.Bases(ctx, n)
        report.timed(canon.intersection_table, ctx, n, bases)
        report.timed(canon.check_trace_biconditional, ctx, n, bases)
    return report


def cmd_spin(args):
    ctx, n = args.field, args.n
    report = Report("spin", {"n": n, "field": _field_label(ctx),
                             "vector": args.vector, "expect": args.expect}, args.seed)
    gens = spinmx.standard_generators(ctx, n)
    lam = parse_vector(args.vector, ctx, n)

    def spin_claim():
        result = spinmx.spin(lam, gens)
        print(f"spin of {args.vector}: dim {result.dim}")
        if not args.expect:
            return claim("spin", f"spin({args.vector}) computed", True,
                         {"dim": result.dim, "subspace": result.to_json()})
        target = canon.submodule(args.expect, ctx, n)
        return claim("spin", f"spin({args.vector}) equals {args.expect}", result == target,
                     {"dim": result.dim, "expected_dim": target.dim})

    report.timed(spin_claim)
    return report


def cmd_survey(args):
    ctx, n = args.field, args.n
    report = Report("survey", {"n": n, "field": _field_label(ctx),
                               "module": args.module, "budget": spinmx.SURVEY_BUDGET},
                    args.seed)
    gens = spinmx.standard_generators(ctx, n)
    carrier = canon.submodule(args.module, ctx, n)
    handle = spinmx.module_handle(gens, carrier, label=args.module)

    def survey_claim():
        lattice = spinmx.survey_submodules(handle, seed=args.seed)
        dims = [s.dim for s in lattice]
        print(f"submodule lattice of {args.module}: dims {dims}")
        return claim("survey", f"exhaustive submodule lattice of {args.module}", True,
                     {"dims": dims, "members": [s.to_json() for s in lattice]})

    report.timed(survey_claim)
    return report


def cmd_series(args):
    ctx, n = args.field, args.n
    report = Report("series", {"n": n, "field": _field_label(ctx),
                               "chain": args.chain}, args.seed)
    gens = spinmx.standard_generators(ctx, n)
    bases = canon.Bases(ctx, n)
    chain = [bases[name] for name in split_chain(args.chain)]

    def series_claim():
        rep = spinmx.composition_series(chain, gens, args.seed)
        for f in rep["factors"]:
            print(f"  factor {f['index']}: dim {f['dim']} -> {f['verdict']}")
        # one reducible factor refutes the chain, whatever the other verdicts
        verdicts = {f["verdict"] for f in rep["factors"]}
        ok = False if "reducible" in verdicts else None if "inconclusive" in verdicts else True
        return claim("series", f"chain {args.chain} is a composition series", ok, rep)

    report.timed(series_claim)
    return report


def cmd_lattice(args):
    ctx, n = args.field, args.n
    report = Report("lattice", {"n": n, "field": _field_label(ctx)}, args.seed)
    if not _small_field_guard(report, ctx, [("lattice", "submodule diagrams")]):
        report.timed(spinmx.verify_lattice_diagrams, ctx, n, args.seed,
                     bases=canon.Bases(ctx, n))
    return report


def cmd_degen(args):
    ctx, n = args.field, args.n
    report = Report(f"degen {args.mode}", {"n": n, "field": _field_label(ctx),
                                           "lambda": args.lam, "q": args.q}, args.seed)
    if _small_field_guard(report, ctx, [("degen", "degeneration claims")]):
        return report
    gens = spinmx.standard_generators(ctx, n)
    lam = parse_vector(args.lam, ctx, n)

    def degen_claim():
        if args.mode == "q":
            if not args.q:
                raise ValueError("mode 'q' needs --q")
            q = [int(x) for x in args.q.split(",")]
            applicable, mw = degen.lindeg_theorem_check(lam, q)
            anchor = "weight truncation stays in the cyclic module"
            if not applicable:
                return {"id": "degen.q", "anchor": anchor, "status": "skipped",
                        "data": {"reason": "hypotheses fail", "max_weight": mw}}
            return claim("degen.q", anchor, degen.verify_lindeg(lam, q, gens),
                         {"max_weight": mw})
        fn = degen.reach_eta if args.mode == "reach-eta" else degen.reach_delta
        cert = fn(lam, gens)
        return claim(f"degen.{args.mode}",
                     f"the vector reaches {cert.target} inside its cyclic module", cert.success,
                     {"branch": cert.branch, "spin_member": cert.spin_member,
                      "z": [ctx.raw_to_json(x) for x in cert.z],
                      "zeta": [ctx.raw_to_json(x) for x in cert.zeta],
                      "basis_change": [[ctx.raw_to_json(x) for x in row]
                                       for row in cert.basis_change]})

    report.timed(degen_claim)
    return report


def cmd_gamma(args):
    ctx, n = args.field, args.n
    report = Report("gamma", {"n": n, "field": _field_label(ctx)}, args.seed)
    if ctx.kind != "finite" or ctx.char != 2 or ctx.order < 4:
        report.skip_all([("gamma", "semilinear-module verification")],
                        "needs characteristic 2 with |F| >= 4")
        return report
    report.timed(gamma2.sigma_gmap_claims, ctx, n, bases=canon.Bases(ctx, n))
    report.timed(gamma2.verify_gamma_irreducible, ctx, n, args.seed)
    return report


def cmd_verify_all(args):
    fields = args.fields or [make_field(3), make_field(2, 2), make_field(5)]
    ns = args.n_list
    report = Report("verify-all",
                    {"n": ns, "fields": [_field_label(c) for c in fields],
                     "samples": args.samples}, args.seed)
    for ctx in fields:
        for n in ns:
            _verify_cell(report, args, ctx, n)
    return report


def _verify_cell(report, args, ctx, n):
    """Every suite for one (n, field), sharing one generator set and one Bases."""
    tag = f"n{n}.q{_field_label(ctx)}"
    if ctx.kind == "finite" and ctx.order <= 2:
        report.skip_all([(f"{tag}.all-claims", "every suite for this field")],
                        "|F| > 2 required")
        return
    gens = spinmx.standard_generators(ctx, n)
    bases = canon.Bases(ctx, n)
    for name in DIM_ORDER:
        _timed_cell(report, tag, dim_claim, bases, name)
    _timed_cell(report, tag, canon.intersection_table, ctx, n, bases)
    _timed_cell(report, tag, canon.check_trace_biconditional, ctx, n, bases)
    _timed_cell(report, tag, spinmx.verify_lattice_diagrams, ctx, n, args.seed, gens, bases)

    def spin_claims():
        out = []
        for vec, target in (("eta", "U"), ("delta", "N")):
            got = spinmx.spin(canon.named_vector(vec, ctx, n), gens)
            out.append(claim(f"spin.{vec}", f"spin({vec}) = {target}", got == bases[target],
                             {"dim": got.dim}))
        return out

    _timed_cell(report, tag, spin_claims)

    def degen_claims():
        # looked up per call, so the benchmark tracer's rebinding of degen's
        # suites sees them; the truncation bound needs |F| >= 5
        suites = [
            ("lindeg", degen.lindeg_suite, {},
             "weight truncations stay in their cyclic modules"),
            ("eta", degen.reach_eta_suite, {"bases": bases}, "square-factor vectors "
             "outside the span-preserving submodule reach 123-213"),
            ("delta", degen.reach_delta_suite, {"bases": bases}, "commutative vectors "
             "outside the square-factor submodule reach 112"),
        ]
        out = []
        for name, suite, kw, anchor in suites if ctx.order >= 5 else suites[1:]:
            rep = suite(ctx, n, gens, args.seed, count=args.samples, **kw)
            out.append(claim(f"degen.{name}", anchor, not rep["failures"], rep))
        return out

    _timed_cell(report, tag, degen_claims)
    if ctx.char == 2 and ctx.order >= 4:
        _timed_cell(report, tag, gamma2.sigma_gmap_claims, ctx, n, gens, bases)
        _timed_cell(report, tag, gamma2.verify_gamma_irreducible, ctx, n, args.seed)


def build_parser():
    # the report flags are accepted both before and after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", default=argparse.SUPPRESS,
                        help="write the JSON report to this path")
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base 64-bit seed")
    shared.add_argument("--no-timing", action="store_true",
                        default=argparse.SUPPRESS,
                        help="omit wall-clock data for byte-identical reports")
    p = argparse.ArgumentParser(
        prog="algdeg",
        description="exact module computations on spaces of algebra structure vectors")
    p.add_argument("--json", default=None, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--no-timing", action="store_true", help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    def common(sp, needs_field=True):
        sp.add_argument("--n", type=dimension_arg, default=3)
        if needs_field:
            sp.add_argument("--field", type=field_spec, required=True)

    sp = add_parser("dims", help="dimension table against the closed forms")
    common(sp)

    sp = add_parser("canon", help="canonical submodules and their intersections")
    common(sp)

    sp = add_parser("spin", help="cyclic module of a named or JSON vector")
    common(sp)
    sp.add_argument("--vector", required=True)
    sp.add_argument("--expect", help="named submodule the spin should equal")

    sp = add_parser("survey", help="exhaustive submodule lattice of a carrier")
    common(sp)
    sp.add_argument("--module", required=True)

    sp = add_parser("series", help="certify a chain as a composition series")
    common(sp)
    sp.add_argument("--chain", required=True,
                    help="comma-separated submodule names, e.g. 0,Mstar(1,-1),U,K")

    sp = add_parser("lattice", help="verify the submodule diagrams per branch")
    common(sp)

    sp = add_parser("degen", help="linear degeneration operations")
    sp.add_argument("mode", choices=["q", "reach-eta", "reach-delta"])
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="vector name or JSON")
    sp.add_argument("--q", help="comma-separated integer weights")

    sp = add_parser("gamma", help="characteristic-2 semilinear verification")
    common(sp)

    sp = add_parser("verify-all", help="run every suite over a grid")
    sp.add_argument("--n-list", type=distinct_list(dimension_arg), default=[3])
    sp.add_argument("--fields", type=distinct_list(field_spec),
                    help="comma-separated field specs (default: 3,2^2,5)")
    sp.add_argument("--samples", type=positive_int, default=10,
                    help="sample count per randomized suite")

    return p


_parser = None


def command(args):
    """The function of the parsed subcommand, looked up in this module when called."""
    return globals()["cmd_" + args.cmd.replace("-", "_")]


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report = command(args)(args)
        report.print_summary()
        if args.json:
            report.write(args.json, with_timing=not args.no_timing)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 4
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
