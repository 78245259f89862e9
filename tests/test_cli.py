import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lensfill import build_report, cfrac, cli, fillings, homology, lattice, report, suites
from lensfill.errors import LensfillError, TheoremViolation
from test_fillings import coprime_pair

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((REPO / "schema" / "report.schema.json").read_text())


def run_cli(*args):
    # the child imports lensfill from this checkout, whatever PYTHONPATH holds
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lensfill", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )


def test_fillings_json_l4_1():
    res = run_cli("fillings", "4", "1", "--json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    jsonschema.validate(report, SCHEMA)
    assert report["b"] == [2, 2, 2] and report["a"] == [4]
    assert report["z_set"] == [[1, 2, 1], [2, 1, 2]]
    assert report["classes"] == [[0], [1]]
    assert report["flags"]["rational_ball_witness"] == [2, 1]


def test_fillings_json_l9_2():
    res = run_cli("fillings", "9", "2", "--json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    jsonschema.validate(report, SCHEMA)
    assert report["classes"] == [[0], [1]]
    b2s = [f["b2"] for f in report["fillings"]]
    assert sorted(b2s) == [0, 2]
    assert len(report["spin"]) == 1
    s = report["spin"][0]
    assert s["gamma_filling"] == s["gamma_standard"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coprime_pair(2000))
def test_report_matches_schema_on_random_pairs(pq):
    # p <= 2000: jsonschema checks every array entry, so the chains of
    # length ~p that q = 1 gives near p = 10^5 cost seconds each
    jsonschema.validate(build_report(*pq), SCHEMA)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coprime_pair(2000))
@example((2, 1))  # k = 1, two spin structures
@example((15, 4))  # a class of two fillings, each the other's reverse
@example((9, 2))  # rational-ball witness (3, 1)
@example((5, 1))  # unique filling certified
def test_render_json_equals_stdlib_indent_2(pq):
    from lensfill.report import render_json

    report = build_report(*pq)
    assert render_json(report) == json.dumps(report, indent=2)
    assert render_json(report, "\n  ") == json.dumps([report], indent=2)[4:-2]


def test_json_round_trips_losslessly():
    res = run_cli("fillings", "8", "3", "--json")
    report = json.loads(res.stdout)
    assert json.loads(json.dumps(report)) == report


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.integers(min_value=2**64, max_value=2**200)
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "caf\u00e9 \u2603 \U0001f600", '\\"'])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": [[[]], {"e": {}}]})
@example([1, True, 2**65, -3, None])
def test_render_equals_stdlib_indent_2(x):
    assert cli._render(x) == json.dumps(x, indent=2)


def test_int_text_memo_never_takes_a_bool():
    # True == 1 and both hash alike, so a bool reaching the memo would turn its
    # entry for 1 into "True"; _render writes bools itself, scalar or in a list
    from lensfill.report import _INT_TEXT, render_json

    for x in ([True, 1], {"a": True}, [1, True]):
        assert cli._render(x) == json.dumps(x, indent=2)
    assert cli._render([1]) == "[\n  1\n]"
    report = build_report(9, 2)  # its flags hold a True and its arrays many 1s
    assert render_json(report) == json.dumps(report, indent=2)
    assert _INT_TEXT[1] == "1"
    assert all(type(k) is int for k in _INT_TEXT)


def test_int_text_memo_is_bounded():
    from lensfill.report import _INT_TEXT, _INT_TEXT_CAP, _text

    xs = [2**200, -3, *range(-_INT_TEXT_CAP, 2 * _INT_TEXT_CAP), -(2**70)]
    for _ in range(2):  # the second pass reads what the first one kept
        assert list(map(_text, xs)) == list(map(str, xs))
        assert cli._render(xs) == json.dumps(xs, indent=2)
    assert len(_INT_TEXT) <= _INT_TEXT_CAP
    assert 2**200 not in _INT_TEXT and -3 not in _INT_TEXT


@pytest.mark.parametrize("argv", [["sweep", "30", "--json"], ["zeroseq", "6", "--json"]])
def test_json_output_is_the_stdlib_rendering(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_exit_code_on_bad_pair():
    res = run_cli("fillings", "6", "4")
    assert res.returncode == 1
    res = run_cli("sweep", "1")
    assert res.returncode == 1
    res = run_cli("verify", "nosuchsuite")
    assert res.returncode == 1


def test_runs_without_pythonpath(monkeypatch):
    monkeypatch.delenv("PYTHONPATH", raising=False)
    res = run_cli("expand", "9", "2")
    assert res.returncode == 0, res.stderr
    assert res.stdout


def test_byte_identical_runs():
    a = run_cli("fillings", "13", "5", "--json")
    b = run_cli("fillings", "13", "5", "--json")
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    a = run_cli("sweep", "12", "--csv")
    b = run_cli("sweep", "12", "--csv")
    assert a.stdout == b.stdout


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    res = run_cli("fillings", "9", "2", "--json", "--out", str(target))
    assert res.returncode == 0 and res.stdout == ""
    direct = run_cli("fillings", "9", "2", "--json")
    assert target.read_text() == direct.stdout


def test_unwritable_out_fails_before_computing(monkeypatch, capsys, tmp_path):
    def refuse(p, q):
        raise AssertionError("computed before opening --out")

    monkeypatch.setattr(cli, "build_report", refuse)
    bad = tmp_path / "missing" / "x.txt"
    assert cli.main(["fillings", "9", "2", "--out", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"lensfill: error: cannot write {bad}: No such file or directory\n"


def test_failed_command_keeps_existing_out_file(tmp_path):
    target = tmp_path / "keep.txt"
    target.write_text("earlier output\n")
    res = run_cli("fillings", "6", "4", "--out", str(target))
    assert res.returncode == 1 and res.stdout == ""
    assert target.read_text() == "earlier output\n"
    res = run_cli("expand", "9", "2", "--out", str(target))
    assert res.returncode == 0
    assert target.read_text() == run_cli("expand", "9", "2").stdout


def test_out_on_a_device_that_cannot_be_truncated():
    res = run_cli("expand", "9", "2", "--out", os.devnull)
    assert res.returncode == 0 and res.stdout == res.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_out_on_a_full_device_is_one_error_line():
    res = run_cli("expand", "9", "2", "--out", "/dev/full")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "lensfill: error: cannot write /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("argv", [["zeroseq", "5", "--json"], ["sweep", "12", "--json"]])
def test_chunked_output_on_a_full_device_is_one_error_line(argv):
    res = run_cli(*argv, "--out", "/dev/full")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == "lensfill: error: cannot write /dev/full: No space left on device\n"


@pytest.mark.parametrize(
    "failing, argv",
    [(["zeroseq", "16"], ["zeroseq", "5", "--json"]), (["sweep", "1", "--json"], ["sweep", "12", "--json"])],
)
def test_chunked_command_keeps_or_replaces_an_existing_out_file(tmp_path, failing, argv):
    target = tmp_path / "keep.txt"
    target.write_text("earlier output\n" * 1000)
    res = run_cli(*failing, "--out", str(target))
    assert res.returncode == 1 and res.stdout == ""
    assert target.read_text() == "earlier output\n" * 1000
    res = run_cli(*argv, "--out", str(target))
    assert res.returncode == 0 and res.stdout == ""
    assert target.read_bytes() == run_cli(*argv).stdout.encode()


def test_a_failed_write_removes_the_out_file_it_created(monkeypatch, capsys, tmp_path):
    import errno

    def full(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def open_full(*args, **kwargs):  # creates the file, then fails every write as a full disk does
        fh = open(*args, **kwargs)
        fh.write = full
        return fh

    monkeypatch.setattr(cli, "open", open_full, raising=False)
    target = tmp_path / "new.txt"
    assert cli.main(["expand", "9", "2", "--out", str(target)]) == 1
    assert not target.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"lensfill: error: cannot write {target}: No space left on device\n"


def test_failed_command_removes_the_out_file_it_created(monkeypatch, capsys, tmp_path):
    target = tmp_path / "new.txt"
    for argv in (["fillings", "6", "4"], ["zeroseq", "16"]):
        assert cli.main([*argv, "--out", str(target)]) == 1, argv
        assert not target.exists(), argv

    def violate(p, q):
        raise TheoremViolation("forced")

    monkeypatch.setattr(cli, "build_report", violate)
    assert cli.main(["fillings", "9", "2", "--out", str(target)]) == 2
    assert not target.exists()
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 3
    assert err.endswith("\nlensfill: theorem violation: L(9,2): forced\n")


def test_csv_output_is_parseable():
    res = run_cli("fillings", "9", "2", "--csv")
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[0] == ["p", "q", "b", "n", "chi", "b2", "handles", "rot", "class_index"]
    assert len(rows) == 3
    assert rows[1][3] == "1 2 2 1"
    assert rows[2][5] == "0"  # b2 of the rational-ball filling


def test_render_csv_equals_the_stdlib_csv_writer():
    # render_csv joins fields with commas; the stdlib writer would quote a field
    # holding a comma, a quote or a newline, and on every sweep 30 report none does
    from lensfill.report import CSV_HEADER, csv_rows, render_csv
    from lensfill.suites import _coprime_pairs

    reports = [build_report(p, q) for p, q in _coprime_pairs(30)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for report in reports:
        writer.writerows(csv_rows(report))
    assert len(reports) > 250
    assert render_csv(reports) == buf.getvalue()
    assert render_csv([]) == buf.getvalue().partition("\n")[0] + "\n"


def _table_reference(report):
    """render_table as written with str, the reference for its integer memo."""
    def tup(xs):
        return "(" + ",".join(str(x) for x in xs) + ")"

    p, q, fl = report["p"], report["q"], report["flags"]
    ball = "yes (m={}, h={})".format(*fl["rational_ball_witness"]) if fl["rational_ball"] else "no"
    lines = [
        f"L({p},{q})   qbar = {report['qbar']}",
        f"  p/(p-q) = {tup(report['b'])}    p/q = {tup(report['a'])}",
        f"  rational-ball filling: {ball}    unique filling certified: "
        f"{'yes' if fl['unique_filling_certified'] else 'no'}",
        f"  meridian scale: mu_k = {homology.mu_basis(report['b'])[-1]} mu_1 (mod {p})",
        f"  fillings ({len(report['z_set'])}):",
    ]
    lines += [
        f"    [{i}] n={tup(f['n'])} chi={f['chi']} b2={f['b2']} "
        f"handles={tup(f['handles'])} rot={tup(f['rot'])}"
        for i, f in enumerate(report["fillings"])
    ]
    rel = "reversal identified (q^2 = 1 mod p)" if (q * q) % p == 1 else "no identification"
    lines.append(f"  diffeomorphism classes ({len(report['classes'])}; {rel}):")
    lines += [
        f"    class {i}: " + " ".join(tup(report["z_set"][j]) for j in c)
        for i, c in enumerate(report["classes"])
    ]
    lines.append(f"  spin structures ({len(report['spin'])}):")
    lines += [
        f"    s={tup(s['s'])} gamma_filling={s['gamma_filling']} gamma_standard={s['gamma_standard']}"
        for s in report["spin"]
    ]
    return "\n".join(lines) + "\n"


def _csv_reference(reports):
    """render_csv as written with str, the reference for its integer memo."""
    lines = [",".join(["p", "q", "b", "n", "chi", "b2", "handles", "rot", "class_index"])]
    for r in reports:
        class_of = {j: ci for ci, c in enumerate(r["classes"]) for j in c}
        for i, f in enumerate(r["fillings"]):
            fields = [r["p"], r["q"], r["b"], f["n"], f["chi"], f["b2"], f["handles"], f["rot"], class_of[i]]
            lines.append(",".join(" ".join(map(str, x)) if type(x) is list else str(x) for x in fields))
    return "\n".join(lines) + "\n"


# the first chain of each `deep` pool in perfbench/inputs.json: [7]*9, [5]*10 and
# (3, 4, 5, 6, 7, 3, 4, 5, 6, 7), with 1,421, 3,322 and 2,076 fillings
DEEP_PAIRS = [(34111385, 29134601), (6665999, 5274724), (3996974, 2536279)]


def test_table_and_csv_equal_their_str_references():
    from lensfill.report import render_csv, render_table
    from lensfill.suites import _coprime_pairs

    reports = [build_report(p, q) for p, q in [*_coprime_pairs(60), *DEEP_PAIRS]]
    assert len(reports) == 1101 + len(DEEP_PAIRS)
    for report in reports:
        assert render_table(report) == _table_reference(report), (report["p"], report["q"])
    assert render_csv(reports) == _csv_reference(reports)


def test_sweep_rational_ball_filter():
    res = run_cli("sweep", "20", "--rational-ball", "--json")
    reports = json.loads(res.stdout)
    pairs = [(r["p"], r["q"]) for r in reports]
    assert pairs == [(4, 1), (9, 2), (9, 5), (16, 3), (16, 11)]
    for r in reports:
        jsonschema.validate(r, SCHEMA)


def test_sweep_min_fillings_filter():
    res = run_cli("sweep", "10", "--min-fillings", "2", "--json")
    pairs = [(r["p"], r["q"]) for r in json.loads(res.stdout)]
    assert (4, 1) in pairs
    assert all(p > q for p, q in pairs)


def test_sweep_pmax_flag_spelling():
    positional = run_cli("sweep", "8", "--json")
    flagged = run_cli("sweep", "--pmax", "8", "--json")
    assert positional.stdout == flagged.stdout
    assert run_cli("sweep").returncode == 1


def _searched_by_sweep(p, q):
    """True for the pair of L(p, q) that sweep searches: q <= qbar."""
    return q <= pow(q, -1, p)


def test_sweep_reports_equal_build_report(capsys):
    # the pairs with q > qbar take their partner's fillings, reversed
    assert cli.main(["sweep", "60", "--json"]) == 0
    swept = json.loads(capsys.readouterr().out)
    pairs = list(suites._coprime_pairs(60))
    assert sum(not _searched_by_sweep(p, q) for p, q in pairs) == 457
    assert swept == [build_report(p, q) for p, q in pairs]


def test_sweep_searches_each_lens_space_once(monkeypatch, capsys):
    search = fillings.bounded_zero_cf
    searched = []
    monkeypatch.setattr(fillings, "bounded_zero_cf", lambda b: searched.append(b) or search(b))
    assert cli.main(["sweep", "40"]) == 0
    capsys.readouterr()
    want = [fillings.make_params(p, q).b
            for p, q in suites._coprime_pairs(40) if _searched_by_sweep(p, q)]
    assert len(want) == 302
    assert searched == want


def test_sweep_partner_pair_violation_names_that_pair(monkeypatch, capsys):
    # 3 * 5 = 1 mod 7: L(7,5), b = (4, 2), takes the reversed fillings of L(7,3)
    rows = report.spin_rows

    def forced(b, a):
        if b == (4, 2):
            raise TheoremViolation("forced")
        return rows(b, a)

    monkeypatch.setattr(report, "spin_rows", forced)
    for argv in (["sweep", "10"], ["sweep", "10", "--json"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == "lensfill: theorem violation: L(7,5): forced\n", argv


def test_duality_suite_searches_each_chain_once(monkeypatch):
    search = fillings.bounded_zero_cf
    searched = []
    monkeypatch.setattr(fillings, "bounded_zero_cf", lambda b: searched.append(b) or search(b))
    assert suites.suite_duality(30) == (277, "all pairs with p <= 30")
    assert len(searched) == len(set(searched)) == 277


def _no_work(*args):
    pytest.fail("sweep built a report past its limit")


def test_sweep_refuses_a_bound_over_its_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_report", _no_work)
    monkeypatch.setattr(cli, "_build_report", _no_work)
    over = cli.MAX_SWEEP_P + 1
    for argv in (["sweep", str(over), "--json"], ["sweep", "--pmax", str(over)]):
        start = time.perf_counter()
        assert cli.main(argv) == 1, argv
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"lensfill: error: sweep bound {over} is over the limit of {cli.MAX_SWEEP_P}\n"
    readme = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    assert f"`sweep` refuses a bound over {cli.MAX_SWEEP_P} " in readme


def test_sweep_limit_is_inclusive_and_admits_200(monkeypatch, capsys):
    assert cli.MAX_SWEEP_P >= 450  # `sweep 450 --json` ran in 8.8 s before the partner reuse
    assert cli.main(["sweep", "200"]) == 0
    assert capsys.readouterr().out.count("\n") == 12231
    monkeypatch.setattr(cli, "MAX_SWEEP_P", 12)
    assert cli.main(["sweep", "12"]) == 0
    assert cli.main(["sweep", "13"]) == 1


def test_expand_command():
    res = run_cli("expand", "9", "2", "--json")
    payload = json.loads(res.stdout)
    assert payload == {"p": 9, "q": 2, "a": [5, 2], "b": [2, 2, 2, 3], "qbar": 5}


def test_zeroseq_command():
    res = run_cli("zeroseq", "4", "--json")
    payload = json.loads(res.stdout)
    assert payload["count"] == payload["catalan"] == 5
    assert [1, 2, 2, 1] in payload["tuples"]
    assert payload["tuples"] == sorted(payload["tuples"])
    assert run_cli("zeroseq", "0").returncode == 1


@pytest.mark.parametrize("k", [1, 2, 5, 11])  # k = 11 has two-digit entries
def test_zeroseq_text_equals_triangulation_census(k, capsys):
    tuples = sorted(suites._triangulation_tuples(k)) if k > 1 else [(0,)]
    lines = [f"# {len(tuples)} zero tuples of length {k}"]
    lines += [" ".join(str(x) for x in t) for t in tuples]
    assert cli.main(["zeroseq", str(k)]) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    payload = {"k": k, "count": len(tuples), "catalan": len(tuples), "tuples": tuples}
    assert cli.main(["zeroseq", str(k), "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def test_zeroseq_writes_the_searched_tuples_as_json_dumps_would(capsys):
    from lensfill.cfrac import enumerate_zero_cf

    for k in range(1, 13):
        tuples = enumerate_zero_cf(k)
        assert cli.main(["zeroseq", str(k)]) == 0
        table = capsys.readouterr().out.split("\n")
        assert table[1:-1] == [" ".join(map(str, t)) for t in tuples], k
        assert cli.main(["zeroseq", str(k), "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", k
        items = [cli._render(t, "\n    ") for t in tuples]  # each tuple as the payload holds it
        assert out.endswith('"tuples": [\n    ' + ",\n    ".join(items) + "\n  ]\n}\n"), k


def test_zeroseq_peak_memory_stays_near_its_output(tmp_path):
    # the output is the search's blocks as they stand, or rewritten one block at a
    # time as each is written: never a string per tuple, never joined into one
    # string, and under --json never all alive at once, so its peak stays below the
    # file it writes; measured through main, which consumes a lazy result
    import tracemalloc

    for json_flag, bound in ((False, 3), (True, 1)):
        target = tmp_path / f"zeroseq-{json_flag}.txt"
        tracemalloc.start()
        try:
            code = cli.main(["zeroseq", "12", *(["--json"] * json_flag), "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert code == 0
        assert peak < bound * size, (json_flag, peak, size)


def test_zeroseq_refuses_catalan_sized_output():
    res = run_cli("zeroseq", "16")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "zeroseq 16 would write Catalan(15) = 9694845 tuples" in res.stderr


def test_classify_command():
    res = run_cli("classify", "4", "1", "--json")
    payload = json.loads(res.stdout)
    assert payload["classes"] == [[0], [1]]


def test_gamma_command():
    res = run_cli("gamma", "4", "1", "--json")
    payload = json.loads(res.stdout)
    assert res.returncode == 0
    assert len(payload["spin"]) == 2
    for row in payload["spin"]:
        assert row["gamma_filling"] == row["gamma_standard"]


def test_rot_command():
    res = run_cli("rot", "4", "1", "--json")
    payload = json.loads(res.stdout)
    assert payload["rot"] == [[0, 1, 2], [0, 1, 1]]


def test_lattice_check_command():
    res = run_cli("lattice-check", "9", "2", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    by_n = {tuple(r["n"]): r for r in payload["fillings"]}
    ball = by_n[(2, 2, 1, 3)]
    assert ball["b2"] == 0 and ball["h1_divisors"] == [3] and ball["minimal"]
    assert all(r["hom_classes"] and r["string_lemma"] for r in payload["fillings"])


def test_verify_command_and_alias():
    res = run_cli("verify", "mcduff")
    assert res.returncode == 0 and "pass" in res.stdout
    res = run_cli("verify", "gamma", "--pmax", "30")
    assert res.returncode == 0 and "direct" in res.stdout
    res = run_cli("verify", "corollary-c", "--pmax", "40")
    assert res.returncode == 0 and "rational-ball: pass" in res.stdout
    res = run_cli("verify", "catalan", "--kmax", "8")
    assert res.returncode == 0


def test_verify_routes_bounds_by_suite_signature():
    from lensfill.suites import suite_lattice, suite_rotation

    res = run_cli("verify", "lattice", "--pmax", "12", "--kmax", "5")
    assert res.returncode == 0
    assert f"lattice: pass ({suite_lattice(pmax=12)[0]} cases;" in res.stdout
    res = run_cli("verify", "rotation", "--kmax", "5", "--pmax", "12")
    assert res.returncode == 0
    assert f"rotation: pass ({suite_rotation(kmax=5)[0]} cases;" in res.stdout


def test_every_suite_takes_one_bound_with_a_default():
    # cmd_verify passes the table flag's value, or the default, as the one bound
    import inspect

    from lensfill.suites import SUITES

    for name, (suite, flag, default) in SUITES.items():
        assert list(inspect.signature(suite).parameters) == [flag], name
        assert flag in ("pmax", "kmax"), name
        assert type(default) is int and default >= 2, name


def test_verify_all_reports_a_failed_suite_and_runs_the_rest(monkeypatch, capsys):
    monkeypatch.setattr(suites, "classify", lambda params, zs: [[0]])  # one class at every p
    assert cli.main(["verify", "all", "--pmax", "12", "--kmax", "5"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "catalan: pass (4 cases; search = triangulation census for k <= 5)",
        "duality: pass (45 cases; all pairs with p <= 12)",
        "gamma: pass (62 cases; p <= 12; convention: direct for 45 pairs, negated for 0)",
        "lattice: pass (57 cases; all fillings with p <= 12)",
        "mcduff: FAIL",
        "  first counterexample: L(4,1): 1 classes, expected 2",
        "rational-ball: pass (45 cases; p <= 12; 3 rational-ball pairs)",
        "rotation: pass (22 cases; all zero tuples with k <= 5)",
    ]


def _refuse(*args):
    raise LensfillError("forced")


@pytest.mark.parametrize("suite, name, fake", [
    ("duality", "reverse", lambda t: t),
    ("lattice", "check_fillings", _refuse),
    ("rational-ball", "rational_ball_criterion", lambda p, q: None),
], ids=["duality", "lattice", "rational-ball"])
def test_verify_counterexample_names_the_pair(monkeypatch, capsys, suite, name, fake):
    monkeypatch.setattr(suites, name, fake)
    assert cli.main(["verify", suite, "--pmax", "12"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    header, counterexample = out.splitlines()
    assert header == f"{suite}: FAIL"
    assert counterexample.startswith("  first counterexample: L("), counterexample


def test_lattice_suite_passes_a_size_refusal_through(monkeypatch):
    # L(502,1) is past the --pmax cap; its chain of 501 twos is past the lattice limit
    monkeypatch.setattr(suites, "_coprime_pairs", lambda pmax: iter([(502, 1)]))
    with pytest.raises(LensfillError) as info:
        suites.suite_lattice(pmax=12)
    assert type(info.value) is LensfillError  # a refusal, not a theorem violation
    assert str(info.value) == "L(502,1): a chain of 501 entries is longer than the lattice limit of 500"


def test_rational_ball_order_must_match_the_witness(monkeypatch, capsys):
    # L(4,1)'s b2 = 0 filling (2, 1, 2) has its 2-handle at i = 2, so g = K(2) = 2 = m
    witness = suites.rational_ball_criterion

    def shifted(p, q):
        w = witness(p, q)
        return w and (w[0] + 1, w[1])

    monkeypatch.setattr(suites, "rational_ball_criterion", shifted)
    assert cli.main(["verify", "rational-ball", "--pmax", "12"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "rational-ball: FAIL",
        "  first counterexample: L(4,1): b2=0 filling (2, 1, 2): g = 2, witness: (3, 1)",
    ]


@pytest.mark.parametrize("fake, ones, j", [
    ((2, 2, 2, 2), [], 4),  # b - e_4: n_4 = b_4 - 1 = 2, so no entry is 1
    ((2, 1, 1, 4), [2, 3], 2),  # n_2 < b_2, but n_3 is a second 1
], ids=["missing", "doubled"])
def test_rational_ball_filling_has_its_one_1_where_b_drops(monkeypatch, capsys, fake, ones, j):
    # L(9,2) has b = (2, 2, 2, 3) and the b2 = 0 filling (2, 2, 1, 3); swap in the fake
    search = suites.zset
    monkeypatch.setattr(
        suites, "zset", lambda pr: [fake if n == (2, 2, 1, 3) else n for n in search(pr)]
    )
    assert cli.main(["verify", "rational-ball", "--pmax", "12"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "rational-ball: FAIL",
        f"  first counterexample: L(9,2): b2=0 filling {fake}: 1 at positions {ones}, not [{j}]",
    ]


def test_verify_refuses_catalan_sized_kmax():
    for suite in ("catalan", "rotation", "all"):
        res = run_cli("verify", suite, "--kmax", "16")
        assert res.returncode == 1
        assert res.stdout == ""
        assert "Catalan(15) = 9694845 tuples" in res.stderr


def test_verify_refuses_bounds_outside_twice_the_default():
    lattice_range = "is outside 2..120 (twice its default 60)"
    cases = [
        (("lattice", "--pmax", "-5"), f"verify lattice --pmax -5 {lattice_range}"),
        (("catalan", "--kmax", "1"), "verify catalan --kmax 1 is below 2"),
        (
            ("mcduff", "--pmax", "201"),
            "verify mcduff --pmax 201 is outside 2..200 (twice its default 100)",
        ),
        (("all", "--pmax", "121"), f"verify lattice --pmax 121 {lattice_range}"),
    ]
    for argv, message in cases:
        res = run_cli("verify", *argv)
        assert res.returncode == 1, argv
        assert res.stdout == ""
        assert res.stderr == f"lensfill: error: {message}\n"


def test_table_output_mentions_key_facts():
    res = run_cli("fillings", "4", "1")
    assert "L(4,1)" in res.stdout
    assert "classes" in res.stdout
    assert "gamma_filling=1" in res.stdout


def test_gamma_formulas_must_agree_strictly(monkeypatch, capsys):
    from lensfill.errors import TheoremViolation
    from lensfill.suites import suite_gamma

    # negate the dual side, which gamma_standard and spin_rows both read
    dual = homology._dual_gammas
    monkeypatch.setattr(homology, "_dual_gammas",
                        lambda a, p, spins: [(-g) % p for g in dual(a, p, spins)])
    assert cli.main(["gamma", "4", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "theorem violation: L(4,1): gamma at s=(" in err
    with pytest.raises(TheoremViolation, match=r"^L\(3,1\): gamma at s=\("):
        suite_gamma(pmax=12)
    # L(2,1) passes: its residues mod 2 are their own negatives
    assert cli.main(["verify", "gamma", "--pmax", "12"]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "gamma: FAIL",
        "  first counterexample: L(3,1): gamma at s=(0, 0): filling formula 1, standard formula 2",
    ]


def test_gamma_and_expand_never_enumerate_fillings(monkeypatch, capsys):
    def refuse(bounds):
        raise AssertionError("zero-tuple search called")

    monkeypatch.setattr(fillings, "bounded_zero_cf", refuse)
    for command in ("gamma", "expand"):
        assert cli.main([command, "1583407981", "1311738121", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == 1583407981
    with pytest.raises(AssertionError):
        cli.main(["rot", "1583407981", "1311738121"])


def test_searches_past_the_tuple_limit_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cfrac, "MAX_TUPLES", 1)  # L(4,1) has two fillings
    for argv in (
        ["fillings", "4", "1"],
        ["classify", "4", "1"],
        ["rot", "4", "1"],
        ["lattice-check", "4", "1"],
        ["sweep", "10"],
    ):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == (
            "lensfill: error: L(4,1): the zero tuples bounded by (2, 2, 2) "
            "number more than the limit of 1\n"
        )


def test_expansions_past_the_chain_limit_exit_1(monkeypatch, capsys):
    # 5/4 = [2, 2, 2, 2]: L(5,1) has that chain, L(5,4) that dual expansion;
    # either refusal names the command's pair
    monkeypatch.setattr(cfrac, "MAX_CHAIN", 3)
    for argv, prefix in ((["expand", "5", "1"], "L(5,1): "),
                         (["expand", "5", "4"], "L(5,4): "),
                         (["fillings", "5", "1"], "L(5,1): "),
                         (["fillings", "5", "4", "--json"], "L(5,4): ")):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == f"lensfill: error: {prefix}the expansion of 5/4 has more than 3 entries\n", argv
    assert cli.main(["fillings", "4", "1"]) == 0  # (2, 2, 2) is within the limit


def test_chain_limit_message_names_the_pair(capsys):
    assert cli.main(["fillings", "100000001", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "L(100000001,1)" in err


def test_escaped_reversal_exits_2(monkeypatch, capsys):
    # L(21,8) has b = (2, 3, 3, 2) and 8^2 = 1 mod 21, so the reversal of each
    # filling must be a filling; drop (2, 1, 3, 1), the reversal of (1, 3, 1, 2)
    search = fillings.bounded_zero_cf

    def lossy(bounds):
        drop = (2, 1, 3, 1) if tuple(bounds) == (2, 3, 3, 2) else None
        return [n for n in search(bounds) if n != drop]

    monkeypatch.setattr(fillings, "bounded_zero_cf", lossy)
    message = (
        "lensfill: theorem violation: L(21,8): reversal of (1, 3, 1, 2) escapes the bounded set\n"
    )
    for argv in (["fillings", "21", "8"], ["classify", "21", "8"], ["sweep", "21"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == message, argv


def test_second_filling_of_a_certified_pair_exits_2(monkeypatch, capsys):
    # 24/5 = [5, 5], so L(24,5) with b = (2, 2, 2, 3, 2, 2, 2) has the staircase
    # alone; add a palindromic zero tuple, which the reversal check lets through
    search = fillings.bounded_zero_cf
    extra = (2, 1, 3, 2, 3, 1, 2)

    def second(bounds):
        found = search(bounds)
        return found + [extra] if tuple(bounds) == (2, 2, 2, 3, 2, 2, 2) else found

    monkeypatch.setattr(fillings, "bounded_zero_cf", second)
    assert cli.main(["fillings", "24", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "lensfill: theorem violation: L(24,5): the expansion of p/q has all entries >= 5 "
        "but fillings are [(1, 2, 2, 2, 2, 2, 1), (2, 1, 3, 2, 3, 1, 2)]\n"
    )


@pytest.mark.parametrize("pair", [("2000", "1"), ("100000001", "1")], ids=["2000-1", "1e8+1-1"])
@pytest.mark.parametrize("command", ["expand", "fillings", "classify", "gamma", "rot",
                                     "lattice-check"])
def test_per_pair_commands_finish_or_fail_fast(command, pair):
    # L(2000,1) has a chain of 1999 entries; 100000001/100000000 expands past the chain limit
    start = time.perf_counter()
    res = run_cli(command, *pair)
    elapsed = time.perf_counter() - start
    assert res.returncode in (0, 1), res.stderr
    if res.returncode == 1:
        assert res.stdout == "" and res.stderr.count("\n") == 1, res.stderr
        assert f"L({pair[0]},{pair[1]})" in res.stderr
    assert elapsed < 5.0, elapsed


def test_lattice_check_refuses_a_command_over_its_work_limit(monkeypatch, capsys):
    # b = (3,)*20 + (2,)*480 has 2,149 fillings at k = 500: refused once zset is known
    def unreachable(b, n):
        raise AssertionError("check_filling ran on a refused command")

    monkeypatch.setattr(lattice, "check_filling", unreachable)
    start = time.perf_counter()
    assert cli.main(["lattice-check", "79746381976", "49285974541"]) == 1
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "lensfill: error: L(79746381976,49285974541): 2149 fillings of a chain of 500 "
        "entries make 537250000 units of lattice work (fillings x k^2), more than the "
        "limit of 20000000\n"
    )
    assert elapsed < 5.0, elapsed


def test_lattice_check_work_limit_admits_the_largest_known_command(monkeypatch, capsys):
    # b = (3,)*10 + (2,)*490: 46 fillings at k = 500, 11,500,000 units, within the limit
    checked = []
    monkeypatch.setattr(lattice, "check_filling", lambda b, n: checked.append(n) or {"n": list(n)})
    assert cli.main(["lattice-check", "5381251", "3325796", "--json"]) == 0
    assert len(checked) == 46
    # the limit is inclusive: L(9,2) has 2 fillings of a 4-entry chain, 32 units
    monkeypatch.setattr(lattice, "MAX_LATTICE_WORK", 32)
    assert cli.main(["lattice-check", "9", "2", "--json"]) == 0
    monkeypatch.setattr(lattice, "MAX_LATTICE_WORK", 31)
    assert cli.main(["lattice-check", "9", "2", "--json"]) == 1
    out, err = capsys.readouterr()
    assert err.endswith("2 fillings of a chain of 4 entries make 32 units of lattice work "
                        "(fillings x k^2), more than the limit of 31\n")
    assert len(checked) == 48


def test_lattice_check_refuses_too_many_exceptional_classes():
    # L(p, p-1) has b = (p,), so its one filling (0,) needs M = p exceptional classes
    start = time.perf_counter()
    res = run_cli("lattice-check", "100002", "100001")
    elapsed = time.perf_counter() - start
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == (
        "lensfill: error: L(100002,100001): 100002 exceptional classes exceed the limit of 100000\n"
    )
    assert elapsed < 5.0, elapsed


def _force(monkeypatch, stage):
    """Make one stage's check fail, or one limit refuse, on every pair."""
    chain, dual = homology._chain_continuants, homology._dual_gammas
    if stage == "point-diagram":  # the direct route gains an entry the diagram lacks
        direct = cfrac.hj_expand
        monkeypatch.setattr(cfrac, "hj_expand", lambda p, q: (*direct(p, q), 2))
    elif stage == "spin-count":  # p + 1 for p flips the parity the count is checked against
        monkeypatch.setattr(homology, "_chain_continuants",
                            lambda b: [*chain(b)[:-1], chain(b)[-1] + 1])
    elif stage == "spin-validity":  # the dual chain gains an entry 2, which makes K(a) odd at
        # L(2,1) and L(4,1), so no spin structure of it has x_1 = 1 - s_1 = 1
        monkeypatch.setattr(homology, "_dual_gammas", lambda a, p, s: dual((*a, 2), p, s))
    elif stage == "gamma":  # the dual side both spin_rows and gamma_standard read
        monkeypatch.setattr(homology, "_dual_gammas",
                            lambda a, p, s: [g + 1 for g in dual(a, p, s)])
    elif stage == "reversal":  # a reversal that leaves the bounded set
        monkeypatch.setattr(fillings, "reverse", lambda t: (*reversed(t), 0))
    elif stage == "lattice-check":
        monkeypatch.setattr(lattice, "validate_string_lemma", lambda cfg: False)
    elif stage == "max-tuples":  # L(4,1) is the first pair with two fillings
        monkeypatch.setattr(cfrac, "MAX_TUPLES", 1)
    else:  # L(5,1) is the first pair with a chain of four entries
        monkeypatch.setattr(cfrac, "MAX_CHAIN", 3)


# stage -> (exit code of a command other than verify, first pair that fails in a
# sweep or a suite, the commands that reach the stage)
FORCED_FAILURES = {
    "point-diagram": (2, (2, 1), ["expand 4 1", "fillings 4 1", "fillings 4 1 --json",
                                  "classify 4 1", "gamma 4 1", "rot 4 1", "sweep 10",
                                  "sweep 10 --json", "verify gamma"]),
    "spin-count": (2, (2, 1), ["fillings 4 1", "fillings 4 1 --json", "classify 4 1",
                               "gamma 4 1", "rot 4 1", "sweep 10", "sweep 10 --json",
                               "verify gamma"]),
    "spin-validity": (2, (2, 1), ["fillings 4 1", "fillings 4 1 --json", "classify 4 1",
                                  "gamma 4 1", "rot 4 1", "sweep 10", "sweep 10 --json",
                                  "verify gamma"]),
    "gamma": (2, (2, 1), ["fillings 4 1", "fillings 4 1 --json", "classify 4 1", "gamma 4 1",
                          "rot 4 1", "sweep 10", "sweep 10 --json", "verify gamma"]),
    "reversal": (2, (2, 1), ["fillings 4 1", "fillings 4 1 --json", "classify 4 1", "rot 4 1",
                             "sweep 10", "sweep 10 --json", "verify mcduff"]),
    "lattice-check": (2, (2, 1), ["lattice-check 4 1", "verify lattice"]),
    "max-tuples": (1, (4, 1), ["fillings 4 1", "classify 4 1", "rot 4 1", "lattice-check 4 1",
                               "sweep 10", "verify duality", "verify lattice", "verify mcduff",
                               "verify rational-ball"]),
    # gamma 5 4 has b = (5,) and reads the dual chain (2, 2, 2, 2), as fillings does
    "max-chain": (1, (5, 1), ["expand 5 1", "expand 5 4", "fillings 5 1", "classify 5 1",
                              "gamma 5 1", "gamma 5 4", "rot 5 1", "lattice-check 5 1",
                              "sweep 10", "verify duality", "verify gamma", "verify lattice",
                              "verify mcduff", "verify rational-ball"]),
}


@pytest.mark.parametrize("stage, command", [
    (stage, command) for stage, (_, _, commands) in FORCED_FAILURES.items() for command in commands
], ids=lambda x: x.replace(" ", "-"))
def test_forced_failure_names_its_pair_once(monkeypatch, capsys, stage, command):
    code, first, _ = FORCED_FAILURES[stage]
    argv = command.split()
    if argv[0] == "verify":
        argv += ["--pmax", "12"]
        code = 2  # verify reports any failed suite as a violation
    pair = tuple(map(int, argv[1:3])) if argv[0] not in ("sweep", "verify") else first
    named = "L({},{}): ".format(*pair)
    _force(monkeypatch, stage)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if argv[0] == "verify":
        assert err == ""
        header, text = out.splitlines()
        assert header == f"{argv[1]}: FAIL"
        assert text.startswith("  first counterexample: " + named), text
    else:
        assert out == ""
        text = err
        kind = "error" if code == 1 else "theorem violation"
        assert text.startswith(f"lensfill: {kind}: {named}") and text.count("\n") == 1, text
    assert text.count("L(") == 1, text


# case -> (suite, the name in lensfill.suites to wrap, its wrapper, the counterexample line)
SUITE_FAILURES = {
    "chain-not-reversed": ("duality", "reverse", lambda reverse: lambda t: (*reverse(t), 0),
                           "L(2,1): chain not reversed"),
    # L(9,5) has b = (3, 2, 2, 2); drop (3, 1, 2, 2), the reversal of L(9,2)'s (2, 2, 1, 3)
    "fillings-not-reversed": ("duality", "zset",
                              lambda zset: lambda pr: [n for n in zset(pr) if n != (3, 1, 2, 2)],
                              "L(9,2): fillings not reversed"),
    # the expected pairs lose m = 3, the largest root up to 12
    "pair-census": ("rational-ball", "isqrt", lambda isqrt: lambda n: isqrt(n) - 1,
                    "pair census: symmetric difference [(9, 2), (9, 5)]"),
}


@pytest.mark.parametrize("case", SUITE_FAILURES)
def test_forced_suite_failure_names_its_counterexample(monkeypatch, capsys, case):
    suite, name, wrap, message = SUITE_FAILURES[case]
    monkeypatch.setattr(suites, name, wrap(getattr(suites, name)))
    assert cli.main(["verify", suite, "--pmax", "12"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out == f"{suite}: FAIL\n  first counterexample: {message}\n"


def test_naming_prefixes_only_inside_its_scope(monkeypatch):
    from lensfill.errors import naming
    from lensfill.fillings import make_params

    refusal = "the expansion of 5/4 has more than 3 entries"
    monkeypatch.setattr(cfrac, "MAX_CHAIN", 3)
    with pytest.raises(LensfillError) as outside:
        make_params(5, 1)
    assert str(outside.value) == refusal
    with pytest.raises(LensfillError) as inside:
        with naming(5, 1):
            make_params(5, 1)
    assert type(inside.value) is LensfillError and str(inside.value) == f"L(5,1): {refusal}"
    with pytest.raises(TheoremViolation, match=r"^L\(2,1\): forced$"):
        with naming(2, 1):
            raise TheoremViolation("forced")
    with pytest.raises(KeyError, match="^'forced'$"):  # not a package error: left alone
        with naming(2, 1):
            raise KeyError("forced")
