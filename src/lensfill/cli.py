"""Command line surface.

Exit codes: 0 success; 1 for bad arguments or a LensfillError (an input
outside the operation's domain); 2 for a TheoremViolation (a computation
contradicting a proved statement, the most important signal the tool can
emit).  Errors name their pair through errors.naming scopes.  `verify`
does not stop at a failed suite: it prints FAIL and the suite's exception
message as the first counterexample, runs the remaining suites, and exits
2 if any failed.  Output is deterministic; identical invocations produce
byte-identical output.  A command returns its text as one string or as an
iterable of chunks, which main writes with writelines, so a large output such
as zeroseq's or `sweep --json`'s is never joined into one string;
`zeroseq --json` yields its chunks as it rewrites them, a rewrite that cannot
fail midway.  JSON output is byte for byte what `json.dumps(..., indent=2)`
gives; report.render_json writes reports, cmd_zeroseq lays out its payload by
rewriting the search's text blocks, and `_render` writes the rest with
str.join, since the stdlib's C encoder does not handle an indent; both read
integer text from report's memo.

`sweep` searches each lens space once.  For q qbar = 1 mod p, L(p, qbar) is
L(p, q) with its chain reversed, and its fillings are those of L(p, q)
reversed (`verify duality` checks both for p <= 300).  So sweep searches the
pair with q <= qbar and hands the reversed set to report._build_report when
(p, qbar) comes up later in the same p; every other stage of the report,
each of its checks included, still runs on that pair.  sweep refuses a bound
over MAX_SWEEP_P before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cfrac import (
    _check_pair, _dual_expansion, _zero_tuple_count, dual_expansion, enumerate_zero_cf, reverse,
)
from .errors import LensfillError, TheoremViolation, naming
from .fillings import make_params, zset
from .homology import spin_rows
from .lattice import check_fillings
from .report import _build_report, _text, build_report, render_csv, render_json, render_table
from .suites import SUITES, _ALIASES, _coprime_pairs

_SUITE_CHOICES = sorted(SUITES) + sorted(_ALIASES) + ["all"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 here; 2 is reserved for theorem violations
        self.exit(1, f"{self.prog}: error: {message}\n")


_encode_key = json.encoder.encode_basestring_ascii
_INT = {int}


def _render(x, pad="\n") -> str:
    """`json.dumps(x, indent=2)` for dicts with str keys, lists, tuples and
    leaves; pad is the newline and indent that precede x's closing bracket."""
    t = type(x)
    if t is dict:
        if not x:
            return "{}"
        inner = pad + "  "
        items = [_encode_key(k) + ": " + _render(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = pad + "  "
        # a list of ints (no bools) is the common case: one join, no recursion
        items = map(_text, x) if {*map(type, x)} == _INT else [_render(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if t is int:  # never a bool: report._text takes ints only
        return _text(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    return json.dumps(x)


def _dump_json(payload) -> str:
    return _render(payload) + "\n"


# Each command returns the text to write, as one string or an iterable of chunks;
# verify also returns its exit code.


def cmd_expand(args) -> str:
    params = make_params(args.p, args.q)
    payload = {
        "p": args.p,
        "q": args.q,
        "a": list(dual_expansion(params.b)),
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


def cmd_zeroseq(args):  # a list of chunks, or a generator of them under --json
    k = args.k
    catalan = _zero_tuple_count(k, f"zeroseq {k} would write")
    # the search writes the tuples as a few text blocks, each tuple "\n" and its entries
    # joined by spaces, and counts them; the blocks are written as they stand
    totals: list[int] = []
    blocks = enumerate_zero_cf(k, _totals=totals)
    count = totals[-1]
    if not args.json:
        return [f"# {count} zero tuples of length {k}", *blocks, "\n"]

    def payload():
        # the payload {k, count, catalan, tuples} at indent 2: entries go one to a line,
        # and a tuple's "\n" (held as ";" meanwhile) closes the tuple before it and opens
        # its own; each block is rewritten as it is written, and its table text dropped
        yield f'{{\n  "k": {k},\n  "count": {count},\n  "catalan": {catalan},\n  "tuples": [\n    [\n      '
        between = "\n    ],\n    [\n      "
        for i in range(len(blocks)):
            chunk = blocks[i].replace("\n", ";").replace(" ", ",\n      ").replace(";", between)
            blocks[i] = ""
            yield chunk[len(between):] if i == 0 else chunk  # k >= 1 has a tuple
        yield "\n    ]\n  ]\n}\n"

    return payload()


def cmd_fillings(args) -> str:
    report = build_report(args.p, args.q)
    if args.json:
        return render_json(report) + "\n"
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
    rows = spin_rows(params.b, _dual_expansion(params.b, args.p, args.q))
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
    report = build_report(args.p, args.q)
    rot = [f["rot"] for f in report["fillings"]]
    if args.json:
        return _dump_json({"p": args.p, "q": args.q, "z_set": report["z_set"], "rot": rot})
    lines = [f"L({args.p},{args.q}) rotation numbers:"]
    for n, r in zip(report["z_set"], rot):
        lines.append(f"  n={tuple(n)}: rot={tuple(r)}")
    return "\n".join(lines) + "\n"


def cmd_lattice_check(args) -> str:
    params = make_params(args.p, args.q)
    rows = check_fillings(params.b, zset(params))
    if args.json:
        return _dump_json({"p": args.p, "q": args.q, "fillings": rows})
    lines = [f"L({args.p},{args.q}) lattice checks:"]
    for r in rows:
        lines.append(
            f"  n={tuple(r['n'])}: M={r['m_total']} b2={r['b2']} "
            f"H1 divisors={r['h1_divisors']} counts={tuple(r['si_counts'])} ok"
        )
    return "\n".join(lines) + "\n"


# the largest sweep bound: `sweep 580 --json` takes about 10 s and peaks at 353 MB on a
# 2-core x86-64 host under CPython 3.11 (9.9 and 10.0 s; `sweep 450 --json` 5.9 s)
MAX_SWEEP_P = 580


def cmd_sweep(args) -> str | list[str]:
    if args.p_max is not None and args.p_max_flag is not None:
        raise LensfillError(f"sweep takes one bound, got {args.p_max} and --pmax {args.p_max_flag}")
    p_max = args.p_max if args.p_max_flag is None else args.p_max_flag
    if p_max is None:
        raise LensfillError("sweep needs a bound: positional p_max or --pmax")
    if p_max < 2:
        raise LensfillError(f"sweep bound must be >= 2, got {p_max}")
    if p_max > MAX_SWEEP_P:
        raise LensfillError(f"sweep bound {p_max} is over the limit of {MAX_SWEEP_P}")

    def keep(r) -> bool:
        if args.rational_ball and not r["flags"]["rational_ball"]:
            return False
        if args.unique and not r["flags"]["unique_filling_certified"]:
            return False
        if args.min_fillings is not None and len(r["z_set"]) < args.min_fillings:
            return False
        return True

    # (p, qbar) -> the fillings of L(p, q) reversed, popped when (p, qbar) comes up
    # later in the same p (see the module docstring)
    partners = {}

    def report(p, q):
        with naming(p, q):
            zs = partners.pop((p, q), None)
            if zs is not None:
                return _build_report(make_params(p, q), zs)
            r = build_report(p, q)
            if q < r["qbar"]:
                partners[p, r["qbar"]] = sorted(map(reverse, r["z_set"]))
            return r

    # one report at a time: under --json each is rendered and dropped as it is built
    reports = filter(keep, (report(p, q) for p, q in _coprime_pairs(p_max)))
    if args.json:  # the reports and their separators, written as they stand
        chunks = ["[\n  "]
        for r in reports:
            chunks += (render_json(r, "\n  "), ",\n  ")
        if len(chunks) == 1:
            return "[]\n"
        chunks[-1] = "\n]\n"
        return chunks
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
        suite, param, default = SUITES[name]
        bound = getattr(args, param)
        if bound is None:
            bound = default
        elif param == "pmax" and not 2 <= bound <= 2 * default:
            raise LensfillError(
                f"verify {name} --pmax {bound} is outside 2..{2 * default} "
                f"(twice its default {default})"
            )
        elif param == "kmax":
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


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"lensfill: error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    out = sys.stdout
    if args.out:
        # opened before the command runs, so an unwritable path fails at once; append
        # mode keeps an existing file intact, and a failed run removes one it created
        created = not os.path.exists(args.out)
        try:
            out = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            return _cannot_write(args.out, exc)
    failed = True
    try:
        if hasattr(args, "q"):  # a per-pair command; a bad pair is reported unnamed
            _check_pair(args.p, args.q)
            args.func = naming(args.p, args.q)(args.func)  # the scope as a decorator
        result = args.func(args)
        text, code = result if isinstance(result, tuple) else (result, 0)
        chunks = [text] if isinstance(text, str) else text  # never joined into one string
        if args.out:
            try:
                if os.path.isfile(args.out):  # a device such as /dev/null cannot be truncated
                    out.truncate(0)
                out.writelines(chunks)
                out.close()  # flushes, so a full device fails here
            except OSError as exc:
                return _cannot_write(args.out, exc)
        else:
            out.writelines(chunks)
        failed = False
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
            if failed and created:
                os.remove(args.out)


if __name__ == "__main__":
    sys.exit(main())
