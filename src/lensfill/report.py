"""Assemble per-pair reports and render them as text, JSON or CSV.

The JSON layout is fixed and published as schema/report.schema.json at the
repository root; identical inputs produce byte-identical output (no
timestamps, fully deterministic ordering).

A report computes the bounded zero-tuple set once and derives the classes,
the per-filling handle data and the uniqueness flag from it.  The tuples
come from the package's own search, so the report skips the membership
check that the public invariants applies to its argument.
"""

from __future__ import annotations

import csv
import io
from typing import Any

from .errors import TheoremViolation
from .fillings import (
    LensParams,
    _certify_unique,
    _describe,
    _orbits,
    make_params,
    rational_ball_criterion,
    zset,
)
from .homology import gamma_filling, gamma_standard, mu_basis, rotation_numbers, spin_structures
from .cfrac import dual_expansion

__all__ = ["build_report", "spin_rows", "render_table", "csv_rows", "render_csv", "CSV_HEADER"]

CSV_HEADER = ["p", "q", "b", "n", "chi", "b2", "handles", "rot", "class_index"]


def spin_rows(params: LensParams) -> list[dict[str, Any]]:
    """The spin section: Gamma from the handle picture and from the standard
    contact structure, on every spin structure of the boundary.

    The two formulas must agree exactly; TheoremViolation names the pair and
    the spin structure where they do not.  They are not independent: both
    expand to the same polynomial in the meridian classes (see homology),
    so the check guards the two implementations against each other.
    """
    rows = []
    for s in spin_structures(params.b):
        gf, gs = gamma_filling(params.b, s), gamma_standard(params.b, s)
        if gf != gs:
            raise TheoremViolation(
                f"L({params.p},{params.q}) gamma at s={s}: "
                f"filling formula {gf}, standard formula {gs}"
            )
        rows.append({"s": list(s), "gamma_filling": gf, "gamma_standard": gs})
    return rows


def build_report(p: int, q: int) -> dict[str, Any]:
    """Everything the tool knows about L(p, q), as a JSON-ready dict."""
    params = make_params(p, q)
    zs = zset(params)
    a = dual_expansion(params.b)
    index = {n: i for i, n in enumerate(zs)}
    classes = [[index[m] for m in orbit] for orbit in _orbits(params, zs)]
    fillings = []
    for n in zs:
        d = _describe(params, n)
        fillings.append(
            {
                "n": list(n),
                "chi": d.chi,
                "b2": d.b2,
                "handles": list(d.handle_counts),
                "rot": list(rotation_numbers(n)),
            }
        )
    witness = rational_ball_criterion(p, q)
    return {
        "p": p,
        "q": q,
        "b": list(params.b),
        "a": list(a),
        "qbar": params.qbar,
        "z_set": [list(n) for n in zs],
        "classes": classes,
        "fillings": fillings,
        "spin": spin_rows(params),
        "flags": {
            "rational_ball": witness is not None,
            "rational_ball_witness": list(witness) if witness else None,
            "unique_filling_certified": all(x >= 5 for x in a) and _certify_unique(params, zs),
        },
    }


def _fmt_tuple(xs) -> str:
    return "(" + ",".join(str(x) for x in xs) + ")"


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
    mu_k = mu_basis(report["b"])[-1]
    lines.append(f"  meridian scale: mu_k = {mu_k} mu_1 (mod {p})")
    lines.append(f"  fillings ({len(report['z_set'])}):")
    for i, f in enumerate(report["fillings"]):
        lines.append(
            f"    [{i}] n={_fmt_tuple(f['n'])} chi={f['chi']} b2={f['b2']} "
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
            f"    s={_fmt_tuple(s['s'])} gamma_filling={s['gamma_filling']} "
            f"gamma_standard={s['gamma_standard']}"
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
                str(report["p"]),
                str(report["q"]),
                " ".join(map(str, report["b"])),
                " ".join(map(str, f["n"])),
                str(f["chi"]),
                str(f["b2"]),
                " ".join(map(str, f["handles"])),
                " ".join(map(str, f["rot"])),
                str(class_of[i]),
            ]
        )
    return rows


def render_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        writer.writerows(csv_rows(report))
    return buf.getvalue()
