import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings

from lensfill import build_report
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


def test_json_round_trips_losslessly():
    res = run_cli("fillings", "8", "3", "--json")
    report = json.loads(res.stdout)
    assert json.loads(json.dumps(report)) == report


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
    from lensfill import cli

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


def test_csv_output_is_parseable():
    res = run_cli("fillings", "9", "2", "--csv")
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[0] == ["p", "q", "b", "n", "chi", "b2", "handles", "rot", "class_index"]
    assert len(rows) == 3
    assert rows[1][3] == "1 2 2 1"
    assert rows[2][5] == "0"  # b2 of the rational-ball filling


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
    # cmd_verify routes --pmax/--kmax by this parameter and allows --pmax up
    # to twice its default
    import inspect

    from lensfill.suites import SUITES

    for name, suite in SUITES.items():
        params = list(inspect.signature(suite).parameters.values())
        assert len(params) == 1, name
        (param,) = params
        assert param.name in ("pmax", "kmax"), name
        assert type(param.default) is int and param.default >= 2, name


def test_verify_all_reports_a_failed_suite_and_runs_the_rest(monkeypatch, capsys):
    from lensfill import cli, suites

    monkeypatch.setattr(suites, "classify", lambda params: [[0]])  # one class at every p
    assert cli.main(["verify", "all", "--pmax", "12", "--kmax", "5"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "catalan: pass (4 cases; search = triangulation census for k <= 5)",
        "duality: pass (45 cases; all pairs with p <= 12)",
        "gamma: pass (62 cases; p <= 12; convention: direct for 45 pairs, negated for 0)",
        "lattice: pass (57 cases; all fillings with p <= 12)",
        "mcduff: FAIL",
        "  first counterexample: p=4: 1 classes, expected 2",
        "rational-ball: pass (45 cases; p <= 12; 3 rational-ball pairs)",
        "rotation: pass (22 cases; all zero tuples with k <= 5)",
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
    from lensfill import cli, homology
    from lensfill.errors import TheoremViolation
    from lensfill.exact import continuant
    from lensfill.suites import suite_gamma

    # negate the standard formula wherever a lensfill module has bound it
    standard = homology.gamma_standard
    for name, module in list(sys.modules.items()):
        if name.startswith("lensfill") and vars(module).get("gamma_standard") is standard:
            monkeypatch.setattr(
                module, "gamma_standard", lambda b, s: (-standard(b, s)) % continuant(b)
            )
    assert cli.main(["gamma", "4", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "theorem violation: L(4,1) gamma at s=(" in err
    with pytest.raises(TheoremViolation, match=r"^L\(3,1\) gamma at s=\("):
        suite_gamma(pmax=12)


def test_gamma_and_expand_never_enumerate_fillings(monkeypatch, capsys):
    from lensfill import cli, fillings

    def refuse(bounds):
        raise AssertionError("zero-tuple search called")

    monkeypatch.setattr(fillings, "bounded_zero_cf", refuse)
    for command in ("gamma", "expand"):
        assert cli.main([command, "1583407981", "1311738121", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == 1583407981
    with pytest.raises(AssertionError):
        cli.main(["rot", "1583407981", "1311738121"])


def test_searches_past_the_tuple_limit_exit_1(monkeypatch, capsys):
    from lensfill import cfrac, cli

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
    from lensfill import cfrac, cli

    # 5/4 = [2, 2, 2, 2]: L(5,1) has that chain, L(5,4) that dual expansion
    monkeypatch.setattr(cfrac, "MAX_CHAIN", 3)
    for argv in (["expand", "5", "1"], ["expand", "5", "4"], ["fillings", "5", "1"],
                 ["fillings", "5", "4", "--json"]):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == "lensfill: error: the expansion of 5/4 has more than 3 entries\n", argv
    assert cli.main(["fillings", "4", "1"]) == 0  # (2, 2, 2) is within the limit


def test_escaped_reversal_exits_2(monkeypatch, capsys):
    from lensfill import cli, fillings

    # L(21,8) has b = (2, 3, 3, 2) and 8^2 = 1 mod 21, so the reversal of each
    # filling must be a filling; drop (2, 1, 3, 1), the reversal of (1, 3, 1, 2)
    search = fillings.bounded_zero_cf

    def lossy(bounds):
        drop = (2, 1, 3, 1) if tuple(bounds) == (2, 3, 3, 2) else None
        return [n for n in search(bounds) if n != drop]

    monkeypatch.setattr(fillings, "bounded_zero_cf", lossy)
    message = (
        "lensfill: theorem violation: reversal of (1, 3, 1, 2) escapes the bounded set of "
        "LensParams(p=21, q=8, b=(2, 3, 3, 2), qbar=8)\n"
    )
    for argv in (["fillings", "21", "8"], ["classify", "21", "8"], ["sweep", "21"]):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == message, argv
