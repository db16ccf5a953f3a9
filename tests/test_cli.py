"""End-to-end tests of the command line interface through main(argv)."""

import json

import pytest

from torsorlab import cli
from torsorlab.checks import SUITES
from torsorlab.reports import Report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_happy_path(capsys):
    code, out, err = run_cli(
        capsys, "gamma", "--field", "f3",
        "--x", "1,0", "--a", "0,1", "--y", "1,1", "--b", "1,2", "--z", "0,1")
    assert code == 0 and not err
    obj = json.loads(out.strip())
    assert obj["ambient"] == 2
    assert obj["field"] == "fp:3"
    assert isinstance(obj["basis"], list)
    assert all(isinstance(row, list) for row in obj["basis"])


def test_gamma_zero_literal_needs_ambient(capsys):
    code, out, err = run_cli(
        capsys, "gamma", "--field", "f3", "--ambient", "2",
        "--x", "0", "--a", "0,1", "--y", "1,1", "--b", "1,2", "--z", "0,1")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["ambient"] == 2


def test_gamma_mismatched_ambient_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "gamma", "--field", "f3",
        "--x", "1,0", "--a", "0,1", "--y", "1,1,0", "--b", "1,2", "--z", "0,1")
    assert code == 2
    assert not out
    assert "mismatched ambient" in err


def test_gamma_missing_slot_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gamma", "--field", "f3", "--x", "1,0")
    assert code == 2
    assert "five" in err


def test_gamma_ragged_literal_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "gamma", "--field", "f3",
        "--x", "1,0;1", "--a", "0,1", "--y", "1,1", "--b", "1,2", "--z", "0,1")
    assert code == 2
    assert "bad matrix literal" in err


def test_bad_field_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--field", "f6", "--ambient", "2")
    assert code == 2
    assert err.startswith("torsorlab:")


def test_check_list_matches_registry(capsys):
    code, out, err = run_cli(capsys, "check", "--list")
    assert code == 0 and not err
    lines = out.strip().splitlines()
    assert len(lines) == len(SUITES)
    for line in lines:
        name, module, description = line.split("\t")
        assert name in SUITES
        assert module and description


def test_check_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--suite", "global-laws", "--field", "f2",
        "--ambient", "2", "--trials", "40", "--seed", "1")
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert obj["passed"] is True
        assert obj["failures"] == 0


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(
        capsys, "check", "--suite", "nonsense", "--field", "f2", "--ambient", "2")
    assert code == 2
    assert "unknown suite" in err
    assert "check --list" in err


def test_check_inapplicable_suite_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "check", "--suite", "hull-closure", "--field", "rat",
        "--ambient", "2", "--trials", "4")
    assert code == 2
    assert "hull-closure" in err


def test_check_requires_ambient(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "global-laws", "--field", "f2")
    assert code == 2
    assert "ambient" in err


def test_check_all_small(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--suite", "all", "--field", "f3", "--ambient", "2",
        "--trials", "5", "--seed", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) > 30
    for line in lines:
        obj = json.loads(line)
        assert set(obj) >= {"suite", "law", "cases", "failures", "passed"}


def test_exhaustive_conflicts_with_trials():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--suite", "global-laws", "--field", "f2",
                  "--ambient", "2", "--exhaustive", "--trials", "9"])
    assert exc.value.code == 2


@pytest.mark.parametrize("trials", ["0", "-5", "many"])
def test_check_rejects_trial_counts_below_one(trials, capsys):
    """Zero or negative trials would run no cases and pass vacuously."""
    for command in (["check", "--suite", "field-axioms", "--field", "f3",
                     "--ambient", "2"],
                    ["bridge", "--check", "thm37"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + ["--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["check", "--suite", "all", "--field", "f3", "--ambient", "-1",
     "--trials", "2"],
    ["gamma", "--field", "f3", "--ambient", "-1", "--x", "0", "--a", "0",
     "--y", "0", "--b", "0", "--z", "0"],
    ["enumerate", "--field", "f3", "--ambient", "-2", "--count"],
    ["lagrangian", "--form", "split", "--n", "-1", "--field", "f3",
     "--count"],
    ["gtable", "--form", "split", "--n", "-1", "--field", "f3", "--a", "1,0"],
    ["homotope", "--family", "o", "--n", "-1", "--field", "f3", "--A", "1",
     "--members"],
    ["bridge", "--check", "prop41", "--n", "-1"],
], ids=lambda command: command[0])
def test_negative_sizes_are_usage_errors(command, capsys):
    """A negative --ambient or --n exits 2, never 1 ("law violated") or 0."""
    with pytest.raises(SystemExit) as exc:
        cli.main(command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "at least 0" in err and "Traceback" not in err


def test_lagrangian_count(capsys):
    code, out, err = run_cli(
        capsys, "lagrangian", "--form", "symplectic", "--n", "1",
        "--field", "f2", "--count")
    assert code == 0 and not err
    assert out.strip() == "3"


def test_lagrangian_list_and_report(capsys):
    code, out, _ = run_cli(
        capsys, "lagrangian", "--form", "split", "--n", "1", "--field", "f3",
        "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert json.loads(line)["ambient"] == 2
    code, out, _ = run_cli(
        capsys, "lagrangian", "--form", "symplectic", "--n", "1", "--field", "f3")
    assert code == 0
    assert json.loads(out.strip())["law"] == "census-two-paths"


def test_lagrangian_needs_finite_field(capsys):
    code, _, err = run_cli(
        capsys, "lagrangian", "--form", "symplectic", "--n", "1",
        "--field", "rat", "--count")
    assert code == 2
    assert "finite" in err


def test_gtable_tsv_is_a_latin_square(capsys):
    code, out, _ = run_cli(
        capsys, "gtable", "--form", "symplectic", "--n", "1", "--field", "f3",
        "--a", "1,0", "--format", "tsv")
    assert code == 0
    rows = [[int(v) for v in line.split("\t")]
            for line in out.strip().splitlines()]
    n = len(rows)
    assert n >= 2
    for row in rows:
        assert sorted(row) == list(range(n))
    for j in range(n):
        assert sorted(r[j] for r in rows) == list(range(n))


def test_gtable_json_has_unit_row(capsys):
    code, out, _ = run_cli(
        capsys, "gtable", "--form", "symplectic", "--n", "1", "--field", "f2",
        "--a", "1,0")
    assert code == 0
    obj = json.loads(out.strip())
    u = obj["unit"]
    table = obj["table"]
    assert table[u] == list(range(len(table)))
    assert len(obj["elements"]) == len(table)


def test_gtable_foreign_unit_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "gtable", "--form", "symplectic", "--n", "1", "--field", "f3",
        "--a", "1,0", "--unit", "1,0")
    assert code == 2
    assert err


def test_homotope_members_and_table(capsys):
    """Members of gl at A=1 over f3 are the x with 1 - x invertible: 0 and 2."""
    code, out, _ = run_cli(
        capsys, "homotope", "--family", "gl", "--n", "1", "--field", "f3",
        "--A", "1", "--members")
    assert code == 0
    assert set(out.strip().splitlines()) == {"0", "2"}
    code, out, _ = run_cli(
        capsys, "homotope", "--family", "gl", "--n", "1", "--field", "f3",
        "--A", "1", "--table", "--format", "tsv")
    assert code == 0
    rows = [[int(v) for v in line.split("\t")]
            for line in out.strip().splitlines()]
    n = len(rows)
    assert n == 2
    for row in rows:
        assert sorted(row) == list(range(n))


def test_homotope_hull_check(capsys):
    code, out, _ = run_cli(
        capsys, "homotope", "--family", "o", "--n", "2", "--field", "f3",
        "--A", "1,0;0,1", "--hull-check")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["passed"] is True


def test_homotope_needs_action(capsys):
    code, _, err = run_cli(
        capsys, "homotope", "--family", "gl", "--n", "1", "--field", "f3",
        "--A", "1")
    assert code == 2
    assert "one of" in err


def test_homotope_rejects_wrong_symmetry(capsys):
    code, _, err = run_cli(
        capsys, "homotope", "--family", "sp", "--n", "2", "--field", "f3",
        "--A", "1,0;0,1", "--members")
    assert code == 2
    assert err


def test_bridge_tokens_all_pass(capsys):
    for token in cli.BRIDGE_TOKENS:
        code, out, err = run_cli(capsys, "bridge", "--check", token)
        assert code == 0, (token, err)
        obj = json.loads(out.strip())
        assert obj["passed"] is True, token


def test_bridge_family_and_size_options(capsys):
    code, out, _ = run_cli(
        capsys, "bridge", "--check", "prop41", "--family", "sp", "--n", "2",
        "--field", "f3")
    assert code == 0
    assert json.loads(out.strip())["failures"] == 0
    code, out, _ = run_cli(
        capsys, "bridge", "--check", "thm37", "--n", "1", "--field", "f3",
        "--exhaustive")
    assert code == 0
    assert json.loads(out.strip())["cases"] == 3


def test_bridge_rejects_bad_parameter(capsys):
    code, _, err = run_cli(
        capsys, "bridge", "--check", "thm33", "--field", "f3", "--n", "2",
        "--A", "0,1;2,0")
    assert code == 2
    assert err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--field", "f2", "--ambient", "2", "--count")
    assert code == 0
    assert out.strip() == "5"
    code, out, _ = run_cli(
        capsys, "enumerate", "--field", "f3", "--ambient", "2", "--dim", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4


def test_enumerate_respects_ambient_cap(capsys, monkeypatch):
    monkeypatch.setenv("TORSORLAB_MAX_AMBIENT", "3")
    code, _, err = run_cli(
        capsys, "enumerate", "--field", "f2", "--ambient", "4", "--count")
    assert code == 2
    assert "TORSORLAB_MAX_AMBIENT" in err


@pytest.mark.parametrize("command", [
    ["enumerate", "--field", "f2", "--ambient", "2", "--count"],
    ["check", "--suite", "global-laws", "--field", "f2", "--ambient", "2",
     "--exhaustive"]])
def test_non_integer_ambient_cap_is_usage_error(command, capsys, monkeypatch):
    monkeypatch.setenv("TORSORLAB_MAX_AMBIENT", "abc")
    code, out, err = run_cli(capsys, *command)
    assert code == 2 and not out
    assert "TORSORLAB_MAX_AMBIENT" in err


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["check", "--suite", "m-symmetries", "--field", "f3",
            "--ambient", "2", "--trials", "20", "--seed", "9"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "reports.jsonl"
    code2 = cli.main(argv + ["--out", str(path)])
    capsys.readouterr()
    assert code2 == 0
    assert path.read_text() == out


def test_identical_invocations_print_identical_bytes(capsys):
    argv = ["check", "--suite", "gamma-agreement", "--field", "f3",
            "--ambient", "2", "--trials", "30", "--seed", "7"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, more_trials, _ = run_cli(capsys, *(argv[:-3] + ["45", "--seed", "7"]))
    assert more_trials != first


def test_emit_reports_exit_code_on_failure(capsys):
    """A failing report drives the exit code to 1 (not a usage error)."""
    failing = Report(suite="demo", law="broken", cases=3, failures=1)
    passing = Report(suite="demo", law="fine", cases=3)
    args = cli.build_parser().parse_args(["check", "--list"])
    assert cli._emit_reports([passing], args) == 0
    capsys.readouterr()
    assert cli._emit_reports([passing, failing], args) == 1
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert json.loads(lines[1])["passed"] is False


def test_check_config_carries_sampling():
    parser = cli.build_parser()
    args = parser.parse_args(["check", "--suite", "all", "--field", "f2",
                              "--ambient", "2", "--seed", "11",
                              "--trials", "77"])
    cc = cli._check_config(args)
    assert cc.trials == 77 and cc.seed == 11 and not cc.exhaustive
