"""Assemble per-pair reports and render them as JSON, text or CSV.

A report is a dict of lists, ints, bools and None, and render_json writes
it as JSON, byte for byte `json.dumps(report, indent=2)`.  That layout is
fixed and published as schema/report.schema.json at the repository root;
identical inputs produce byte-identical output (no timestamps, fully
deterministic ordering).

A report checks its pair once, in make_params, searches the bounded zero
tuples once and expands p/q once: the direct route of cfrac._dual_expansion
expands the report's own pair and checks the point diagram of b against it.
classify and uniqueness_predicate read those, and the rational-ball witness
comes from the unchecked core of rational_ball_criterion.  The tuples come
from the package's own search, so the report takes the two-handle counts
b - n directly instead of calling invariants, which first checks that its
argument is a bounded zero tuple.  _build_report takes the set from its
caller: `sweep` hands it the fillings of L(p, q) reversed for L(p, qbar),
the same contact manifold with its chain reversed, whose fillings are
exactly those reversals (Lisca; `verify duality` checks it), and every
other stage still runs on (p, qbar) itself.  The spin section and
its check are homology.spin_rows; this module assembles and renders only.
The commands fillings, classify, rot and sweep render reports or project them.

Every renderer here, and cli._render, reads the text of an int from one memo,
_text(x), which returns str(x).  Its contract: it takes ints only (never a
bool, since True == 1 hashes alike and would turn the entry for 1 into
"True"; the report's flags are written as literals), it keeps only the
integers 0 <= x < _INT_TEXT_CAP and returns str(x) for any other, and it is a
cache that never changes a result.  The reports of `sweep N` hold only the
integers 0..N, so a few hundred entries serve millions of integer cells.
"""

from __future__ import annotations

from typing import Any

from .fillings import (
    LensParams, _rational_ball_criterion, classify, make_params, uniqueness_predicate, zset,
)
from .homology import _rotation_numbers, spin_rows
from .cfrac import CFTuple, _dual_expansion

__all__ = ["build_report", "render_json", "render_table", "csv_rows", "render_csv", "CSV_HEADER"]

CSV_HEADER = ["p", "q", "b", "n", "chi", "b2", "handles", "rot", "class_index"]

# the reports of `sweep 200` and `sweep 300` hold exactly the 201 and 301 integers
# 0..200 and 0..300; the cap keeps every integer of a sweep up to p = 1023
_INT_TEXT_CAP = 1024


class _IntText(dict):
    """str(x) for an int x, kept when 0 <= x < _INT_TEXT_CAP."""

    __slots__ = ()

    def __missing__(self, x: int) -> str:
        text = str(x)
        if 0 <= x < _INT_TEXT_CAP:
            self[x] = text
        return text


_INT_TEXT = _IntText()
_text = _INT_TEXT.__getitem__  # ints only: see the module docstring


def build_report(p: int, q: int) -> dict[str, Any]:
    """Everything the tool knows about L(p, q), as a JSON-ready dict."""
    params = make_params(p, q)
    return _build_report(params, zset(params))


def _build_report(params: LensParams, zs: list[CFTuple]) -> dict[str, Any]:
    """The report of params.p, params.q, given zs = zset(params)."""
    p, q, b, qbar = params
    a = _dual_expansion(b, p, q)
    orbits = classify(params, zs)
    if len(orbits) == len(zs):  # one orbit per tuple, in the order of zs
        classes = [[i] for i in range(len(zs))]
    else:
        index = {n: i for i, n in enumerate(zs)}
        classes = [[index[m] for m in orbit] for orbit in orbits]
    fillings = []
    for n in zs:
        handles = [bi - ni for bi, ni in zip(b, n)]
        chi = sum(handles)
        fillings.append(
            {
                "n": list(n),
                "chi": chi,
                "b2": chi - 1,
                "handles": handles,
                "rot": _rotation_numbers(n),  # n is searched, or the reversal of one
            }
        )
    witness = _rational_ball_criterion(p, q)
    return {
        "p": p,
        "q": q,
        "b": list(b),
        "a": list(a),
        "qbar": qbar,
        "z_set": [list(n) for n in zs],
        "classes": classes,
        "fillings": fillings,
        "spin": spin_rows(b, a),
        "flags": {
            "rational_ball": witness is not None,
            "rational_ball_witness": list(witness) if witness else None,
            "unique_filling_certified": uniqueness_predicate(a, zs),
        },
    }


def render_json(report: dict[str, Any], pad: str = "\n") -> str:
    """`json.dumps(report, indent=2)` for a report from build_report, written
    over its fixed layout; pad is the newline and indent before the closing
    brace, as for cli._render.  No array of a report is empty: b has entries
    >= 2, so (0,) or (1, 2, ..., 2, 1) is a filling, and spin is checked."""
    p1, p2, p3, p4 = pad + "  ", pad + "    ", pad + "      ", pad + "        "
    j2, j3, j4 = "," + p2, "," + p3, "," + p4  # separators at each depth
    fillings = [
        f'{{{p3}"n": [{p4}{j4.join(map(_text, f["n"]))}{p3}],{p3}"chi": {_text(f["chi"])},'
        f'{p3}"b2": {_text(f["b2"])},{p3}"handles": [{p4}{j4.join(map(_text, f["handles"]))}{p3}],'
        f'{p3}"rot": [{p4}{j4.join(map(_text, f["rot"]))}{p3}]{p2}}}'
        for f in report["fillings"]
    ]
    spin = [
        f'{{{p3}"s": [{p4}{j4.join(map(_text, r["s"]))}{p3}],'
        f'{p3}"gamma_filling": {_text(r["gamma_filling"])},{p3}"gamma_standard": {_text(r["gamma_standard"])}'
        f'{p2}}}'
        for r in report["spin"]
    ]
    z_set = [f"[{p3}{j3.join(map(_text, n))}{p2}]" for n in report["z_set"]]
    classes = [f"[{p3}{j3.join(map(_text, c))}{p2}]" for c in report["classes"]]
    fl = report["flags"]
    witness = fl["rational_ball_witness"]
    return (
        f'{{{p1}"p": {_text(report["p"])},{p1}"q": {_text(report["q"])},'
        f'{p1}"b": [{p2}{j2.join(map(_text, report["b"]))}{p1}],'
        f'{p1}"a": [{p2}{j2.join(map(_text, report["a"]))}{p1}],{p1}"qbar": {_text(report["qbar"])},'
        f'{p1}"z_set": [{p2}{j2.join(z_set)}{p1}],{p1}"classes": [{p2}{j2.join(classes)}{p1}],'
        f'{p1}"fillings": [{p2}{j2.join(fillings)}{p1}],{p1}"spin": [{p2}{j2.join(spin)}{p1}],'
        f'{p1}"flags": {{{p2}"rational_ball": {"true" if fl["rational_ball"] else "false"},'
        f'{p2}"rational_ball_witness": '
        f'{"null" if witness is None else "[" + p3 + j3.join(map(_text, witness)) + p2 + "]"},'
        f'{p2}"unique_filling_certified": '
        f'{"true" if fl["unique_filling_certified"] else "false"}{p1}}}{pad}}}'
    )


def _fmt_tuple(xs) -> str:
    return "(" + ",".join(map(_text, xs)) + ")"


def render_table(report: dict[str, Any]) -> str:
    """Human-readable report, ASCII only."""
    p, q = report["p"], report["q"]
    lines = [f"L({p},{q})   qbar = {report['qbar']}"]
    lines.append(f"  p/(p-q) = {_fmt_tuple(report['b'])}    p/q = {_fmt_tuple(report['a'])}")
    fl = report["flags"]
    ball = (
        "yes (m={}, h={})".format(*fl["rational_ball_witness"])
        if fl["rational_ball"]
        else "no"
    )
    lines.append(
        f"  rational-ball filling: {ball}    unique filling certified: "
        f"{'yes' if fl['unique_filling_certified'] else 'no'}"
    )
    # mu_k = K(b_1..b_{k-1}) mu_1, and K(b_1..b_{k-1}) = p - qbar (k = 1 included)
    lines.append(f"  meridian scale: mu_k = {p - report['qbar']} mu_1 (mod {p})")
    lines.append(f"  fillings ({len(report['z_set'])}):")
    for i, f in enumerate(report["fillings"]):
        lines.append(
            f"    [{i}] n={_fmt_tuple(f['n'])} chi={_text(f['chi'])} b2={_text(f['b2'])} "
            f"handles={_fmt_tuple(f['handles'])} rot={_fmt_tuple(f['rot'])}"
        )
    rel = "reversal identified (q^2 = 1 mod p)" if (q * q) % p == 1 else "no identification"
    lines.append(f"  diffeomorphism classes ({len(report['classes'])}; {rel}):")
    for i, c in enumerate(report["classes"]):
        members = " ".join(_fmt_tuple(report["z_set"][j]) for j in c)
        lines.append(f"    class {i}: {members}")
    lines.append(f"  spin structures ({len(report['spin'])}):")
    for s in report["spin"]:
        lines.append(
            f"    s={_fmt_tuple(s['s'])} gamma_filling={_text(s['gamma_filling'])} "
            f"gamma_standard={_text(s['gamma_standard'])}"
        )
    return "\n".join(lines) + "\n"


def csv_rows(report: dict[str, Any]) -> list[list[str]]:
    """One row per filling; tuple-valued fields are space-joined."""
    rows = []
    class_of = {}
    for ci, c in enumerate(report["classes"]):
        for j in c:
            class_of[j] = ci
    for i, f in enumerate(report["fillings"]):
        rows.append(
            [
                _text(report["p"]),
                _text(report["q"]),
                " ".join(map(_text, report["b"])),
                " ".join(map(_text, f["n"])),
                _text(f["chi"]),
                _text(f["b2"]),
                " ".join(map(_text, f["handles"])),
                " ".join(map(_text, f["rot"])),
                _text(class_of[i]),
            ]
        )
    return rows


def render_csv(reports) -> str:
    """The header and every report's rows, comma-joined.  No field holds a
    comma, a quote or a newline, so none needs quoting."""
    lines = [",".join(CSV_HEADER)]
    for report in reports:
        lines += [",".join(row) for row in csv_rows(report)]
    return "\n".join(lines) + "\n"
