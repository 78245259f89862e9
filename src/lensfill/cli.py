"""Command line surface.

Exit codes: 0 success; 1 for bad arguments or a LensfillError (an input
outside the operation's domain); 2 for a TheoremViolation (a computation
contradicting a proved statement, the most important signal the tool can
emit).  `verify` does not stop at a failed suite: it prints FAIL and the
suite's exception message as the first counterexample, runs the remaining
suites, and exits 2 if any failed.  Output is deterministic; identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .cfrac import _zero_tuple_count, bounded_zero_cf, hj_expand
from .errors import LensfillError, TheoremViolation
from .fillings import make_params, zset
from .homology import rotation_numbers
from .lattice import check_filling
from .report import build_report, render_csv, render_table, spin_rows
from .suites import SUITES, _ALIASES, _coprime_pairs

_SUITE_CHOICES = sorted(SUITES) + sorted(_ALIASES) + ["all"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 here; 2 is reserved for theorem violations
        self.exit(1, f"{self.prog}: error: {message}\n")


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# Each command returns the text to write; verify also returns its exit code.


def cmd_expand(args) -> str:
    params = make_params(args.p, args.q)
    payload = {
        "p": args.p,
        "q": args.q,
        "a": list(hj_expand(args.p, args.q)),
        "b": list(params.b),
        "qbar": params.qbar,
    }
    if args.json:
        return _dump_json(payload)
    return (
        f"p/q = {args.p}/{args.q} = {payload['a']}\n"
        f"p/(p-q) = {args.p}/{args.p - args.q} = {payload['b']}\n"
        f"qbar = {params.qbar}\n"
    )


def cmd_zeroseq(args) -> str:
    if args.k < 1:
        raise LensfillError(f"length must be >= 1, got {args.k}")
    catalan = _zero_tuple_count(args.k, f"zeroseq {args.k} would write")
    # the search yields the zero tuples of length k in lexicographic order
    tuples = bounded_zero_cf((args.k - 1,) * args.k)
    if args.json:
        payload = {
            "k": args.k,
            "count": len(tuples),
            "catalan": catalan,
            "tuples": tuples,
        }
        return _dump_json(payload)
    body = "\n".join(" ".join(map(str, t)) for t in tuples)
    return f"# {len(tuples)} zero tuples of length {args.k}\n{body}\n"


def cmd_fillings(args) -> str:
    report = build_report(args.p, args.q)
    if args.json:
        return _dump_json(report)
    return render_csv([report]) if args.csv else render_table(report)


def cmd_classify(args) -> str:
    report = build_report(args.p, args.q)
    if args.json:
        return _dump_json({k: report[k] for k in ("p", "q", "z_set", "classes")})
    lines = [f"L({args.p},{args.q}): {len(report['classes'])} classes"]
    for i, c in enumerate(report["classes"]):
        members = " ".join(str(tuple(report["z_set"][j])) for j in c)
        lines.append(f"  class {i}: {members}")
    return "\n".join(lines) + "\n"


def cmd_gamma(args) -> str:
    params = make_params(args.p, args.q)
    rows = spin_rows(params)
    if args.json:
        return _dump_json({"p": args.p, "q": args.q, "b": list(params.b), "spin": rows})
    lines = [f"L({args.p},{args.q}) spin structures and invariants:"]
    for r in rows:
        lines.append(
            f"  s={tuple(r['s'])}: filling formula {r['gamma_filling']}, "
            f"standard formula {r['gamma_standard']}"
        )
    return "\n".join(lines) + "\n"


def cmd_rot(args) -> str:
    # zset plus the rotation column, not the whole report: on long chains
    # build_report costs about twice as much
    zs = zset(make_params(args.p, args.q))
    rot = [rotation_numbers(n) for n in zs]
    if args.json:
        return _dump_json({"p": args.p, "q": args.q, "z_set": zs, "rot": rot})
    lines = [f"L({args.p},{args.q}) rotation numbers:"]
    for n, r in zip(zs, rot):
        lines.append(f"  n={n}: rot={r}")
    return "\n".join(lines) + "\n"


def cmd_lattice_check(args) -> str:
    params = make_params(args.p, args.q)
    rows = [check_filling(params.b, n) for n in zset(params)]
    if args.json:
        return _dump_json({"p": args.p, "q": args.q, "fillings": rows})
    lines = [f"L({args.p},{args.q}) lattice checks:"]
    for r in rows:
        lines.append(
            f"  n={tuple(r['n'])}: M={r['m_total']} b2={r['b2']} "
            f"H1 divisors={r['h1_divisors']} counts={tuple(r['si_counts'])} ok"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> str:
    if args.p_max is not None and args.p_max_flag is not None:
        raise LensfillError(f"sweep takes one bound, got {args.p_max} and --pmax {args.p_max_flag}")
    p_max = args.p_max if args.p_max_flag is None else args.p_max_flag
    if p_max is None:
        raise LensfillError("sweep needs a bound: positional p_max or --pmax")
    if p_max < 2:
        raise LensfillError(f"sweep bound must be >= 2, got {p_max}")
    reports = [build_report(p, q) for p, q in _coprime_pairs(p_max)]

    def keep(r) -> bool:
        if args.rational_ball and not r["flags"]["rational_ball"]:
            return False
        if args.unique and not r["flags"]["unique_filling_certified"]:
            return False
        if args.min_fillings is not None and len(r["z_set"]) < args.min_fillings:
            return False
        return True

    reports = [r for r in reports if keep(r)]
    if args.json:
        return _dump_json(reports)
    if args.csv:
        return render_csv(reports)
    lines = []
    for r in reports:
        fl = r["flags"]
        tags = []
        if fl["rational_ball"]:
            tags.append("ball(m={},h={})".format(*fl["rational_ball_witness"]))
        if fl["unique_filling_certified"]:
            tags.append("unique")
        lines.append(
            f"L({r['p']},{r['q']}): |Z|={len(r['z_set'])} "
            f"classes={len(r['classes'])}" + ("  " + " ".join(tags) if tags else "")
        )
    return "\n".join(lines) + "\n" if lines else ""


def cmd_verify(args) -> tuple[str, int]:
    names = sorted(SUITES) if args.suite == "all" else [_ALIASES.get(args.suite, args.suite)]
    runs = []  # every bound is checked before any suite runs
    for name in names:
        suite = SUITES[name]
        # each suite takes one bound, pmax or kmax, with a default >= 2
        (param,) = inspect.signature(suite).parameters.values()
        bound = getattr(args, param.name)
        if bound is None:
            bound = param.default
        elif param.name == "pmax" and not 2 <= bound <= 2 * param.default:
            raise LensfillError(
                f"verify {name} --pmax {bound} is outside 2..{2 * param.default} "
                f"(twice its default {param.default})"
            )
        elif param.name == "kmax":
            if bound < 2:
                raise LensfillError(f"verify {name} --kmax {bound} is below 2")
            _zero_tuple_count(bound, f"verify {name} --kmax {bound} would enumerate")
        runs.append((name, suite, bound))
    lines = []
    failed = False
    for name, suite, bound in runs:
        try:
            cases, detail = suite(bound)
            lines.append(f"{name}: pass ({cases} cases; {detail})")
        except LensfillError as exc:
            lines.append(f"{name}: FAIL\n  first counterexample: {exc}")
            failed = True
    return "\n".join(lines) + "\n", 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lensfill", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(sp, csv_flag=False):
        sp.add_argument("p", type=int)
        sp.add_argument("q", type=int)
        sp.add_argument("--json", action="store_true")
        if csv_flag:
            sp.add_argument("--csv", action="store_true")
        sp.add_argument("--out", metavar="FILE")

    sp = sub.add_parser("expand", help="continued-fraction expansions of p/q and p/(p-q)")
    add_pair(sp)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("zeroseq", help="all zero continued fractions of a given length")
    sp.add_argument("k", type=int)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=cmd_zeroseq)

    sp = sub.add_parser("fillings", help="full report for one lens space")
    add_pair(sp, csv_flag=True)
    sp.set_defaults(func=cmd_fillings)

    sp = sub.add_parser("classify", help="diffeomorphism classes of the fillings")
    add_pair(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("gamma", help="spin structures and plane-field invariants")
    add_pair(sp)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("rot", help="rotation numbers of the attaching circles")
    add_pair(sp)
    sp.set_defaults(func=cmd_rot)

    sp = sub.add_parser("lattice-check", help="lattice cross-checks for every filling")
    add_pair(sp)
    sp.set_defaults(func=cmd_lattice_check)

    sp = sub.add_parser("sweep", help="reports for every pair up to a bound")
    sp.add_argument("p_max", type=int, nargs="?", default=None)
    sp.add_argument("--pmax", dest="p_max_flag", type=int, default=None,
                    help="alternative spelling of the positional bound")
    sp.add_argument("--rational-ball", action="store_true")
    sp.add_argument("--unique", action="store_true")
    sp.add_argument("--min-fillings", type=int, default=None, metavar="N")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--csv", action="store_true")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite", choices=_SUITE_CHOICES)
    sp.add_argument("--pmax", type=int, default=None,
                    help="2 up to twice the suite's default")
    sp.add_argument("--kmax", type=int, default=None,
                    help="2 up to the zeroseq Catalan limit")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    out = sys.stdout
    if args.out:
        # opened before the command runs, so an unwritable path fails at once;
        # append mode keeps an existing file intact until there is text to write
        try:
            out = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"lensfill: error: cannot write {args.out}: {reason}", file=sys.stderr)
            return 1
    try:
        result = args.func(args)
        text, code = result if isinstance(result, tuple) else (result, 0)
        if args.out:
            out.truncate(0)
        out.write(text)
        return code
    except TheoremViolation as exc:
        print(f"lensfill: theorem violation: {exc}", file=sys.stderr)
        return 2
    except LensfillError as exc:
        print(f"lensfill: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.out:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
