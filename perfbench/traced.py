"""Run one lensfill command with a span wrapper around each layer function.

    python perfbench/traced.py TRACE_FILE lensfill-arguments...

lensfill must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).  Each function in LAYERS gets one wrapper, installed in every
lensfill module namespace that binds the function, so calls made through
any module's globals are seen.  A wrapper records calls, total time and
self time (its span minus the spans of wrapped functions it called) and
the counts in COUNTS.  The totals go to TRACE_FILE as JSON when the
command ends; nothing is printed, and the command's output file is the
same as without tracing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = {
    "cfrac": ["bounded_zero_cf", "enumerate_zero_cf", "eval_cf"],
    "fillings": ["make_params", "classify", "invariants", "uniqueness_predicate"],
    "homology": ["spin_structures", "gamma_filling", "gamma_standard", "mu_basis",
                 "rotation_numbers"],
    "lattice": ["build_string", "validate_hom_classes", "validate_string_lemma",
                "complement_homology", "minimal_si_counts", "orthogonal_minus_one_classes"],
    "exact": ["smith_diagonal"],
    "report": ["build_report", "render_table", "render_csv"],
    "cli": ["main", "_dump_json"],
}


def _rendered(args, text):
    return {"bytes": len(text.encode())}


# span name -> (args, result) -> counts to add
COUNTS = {
    "cfrac.bounded_zero_cf": lambda args, r: {"tuples": len(r)},
    "cfrac.enumerate_zero_cf": lambda args, r: {"tuples": len(r)},
    "report.build_report": lambda args, r: {"fillings": len(r["z_set"])},
    "homology.spin_structures": lambda args, r: {"spins": len(r)},
    "lattice.build_string": lambda args, r: {"m_total": r.m_total},
    "exact.smith_diagonal": lambda args, r: {
        "cells": len(args[0]) * (len(args[0][0]) if args[0] else 0)},
    "report.render_table": _rendered,
    "report.render_csv": _rendered,
    "cli._dump_json": _rendered,
}


class Tracer:
    """Per-span totals for one process."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self._inner = [0.0]  # time spent in wrapped callees, one slot per open span

    def wrap(self, name, fn):
        rec = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        count = COUNTS.get(name)
        inner = self._inner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                child = inner.pop()
                inner[-1] += span
                rec["calls"] += 1
                rec["total_s"] += span
                rec["self_s"] += span - child
            if count:
                for key, value in count(args, result).items():
                    rec[key] = rec.get(key, 0) + value
            return result

        return wrapper

    def install(self):
        importlib.import_module("lensfill.cli")  # imports every lensfill module
        modules = [m for n, m in sys.modules.items() if n == "lensfill" or n.startswith("lensfill.")]
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"lensfill.{mod_name}"]
            for name in names:
                fn = getattr(mod, name)
                wrapper = self.wrap(f"{mod_name}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)


def main(argv) -> int:
    trace_file, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["lensfill.cli"].main(args)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
