"""End-to-end tests of the command line interface through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torsorlab import cli
from torsorlab.checks import SUITES, SuiteNotApplicable, run_suite
from torsorlab.fields import PrimeField
from torsorlab.reports import CheckConfig, Report
from torsorlab.subspaces import gaussian_binomial


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
    assert "--b" in err and "required" in err


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


# Refusals that argparse or the library make, each with a word of its message.
REFUSED_ONCE = [
    (("gamma", "--field", "f3", "--x", "1,0", "--a", "0,1", "--y", "1,1",
      "--z", "0,1"), "--b"),
    (("homotope", "--family", "gl", "--n", "1", "--field", "f3",
      "--members"), "--A"),
    (("homotope", "--family", "gl", "--n", "2", "--field", "f3",
      "--A", "1,0;0,1;1,1", "--members"), "square"),
    (("homotope", "--family", "gl", "--n", "2", "--field", "f3",
      "--A", "1", "--members"), "expected 2 columns"),
    (("lagrangian", "--form", "split", "--n", "1", "--field", "rat"),
     "not finite"),
    (("lagrangian", "--form", "split", "--n", "1", "--field", "rat",
      "--count"), "not finite"),
    (("gtable", "--form", "split", "--n", "1", "--field", "rat",
      "--a", "1,0"), "not finite"),
    (("homotope", "--family", "gl", "--n", "1", "--field", "rat",
      "--A", "1", "--members"), "not finite"),
    (("enumerate", "--field", "f6", "--ambient", "2"), "'f6'"),
    (("enumerate", "--field", "fp2:2", "--ambient", "2"), "odd prime")]


@pytest.mark.parametrize("argv,message", REFUSED_ONCE, ids=[
    "gamma-without-b", "homotope-without-A", "homotope-A-not-square",
    "homotope-A-too-narrow", "lagrangian-rat", "lagrangian-rat-count",
    "gtable-rat", "homotope-members-rat", "enumerate-f6",
    "enumerate-fp2-2"])
def test_refusals_without_a_hand_check_exit_2(argv, message, capsys):
    """Each input here is refused by argparse or by the library, not by a
    check of the command's own; main reports it with exit code 2."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert message in err and "Traceback" not in err


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


def test_hull_closure_refuses_a_large_matrix_space(capsys):
    """11^4 2x2 matrices over F11 exceed the budget: the suite refuses before
    enumerating, and the command line reports the refusal with exit code 2."""
    with pytest.raises(SuiteNotApplicable, match="matrix enumeration too large"):
        run_suite("hull-closure", PrimeField(11), 4, CheckConfig())
    code, out, err = run_cli(
        capsys, "check", "--suite", "hull-closure", "--field", "f11",
        "--ambient", "4")
    assert code == 2 and not out
    assert "suite hull-closure: matrix enumeration too large here" in err


@pytest.mark.parametrize("argv,message", [
    (("check", "--suite", "field-axioms", "--ambient", "2"),
     "a field is required (try --field f5 or rat)"),
    (("check", "--field", "f3", "--ambient", "2"),
     "check needs --suite <name> or --list"),
    (("gtable", "--form", "symplectic", "--n", "1", "--field", "f3",
      "--a", "1,0;0,1"),
     "the torsor carrier at this parameter is empty")],
    ids=["no-field", "no-suite", "empty-carrier"])
def test_refusals_print_their_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err == "torsorlab: %s\n" % message


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


def test_exhaustive_conflicts_with_trials(capsys):
    code, _, _ = run_cli(capsys, "check", "--suite", "global-laws",
                         "--field", "f2", "--ambient", "2", "--exhaustive",
                         "--trials", "9")
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-5", "many"])
def test_check_rejects_trial_counts_below_one(trials, capsys):
    """Zero or negative trials would run no cases and pass vacuously."""
    for command in (["check", "--suite", "field-axioms", "--field", "f3",
                     "--ambient", "2"],
                    ["bridge", "--check", "thm37"]):
        code, _, err = run_cli(capsys, *command, "--trials", trials)
        assert code == 2
        assert "--trials" in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "x"])
def test_check_rejects_seeds_outside_64_bits(seed, capsys):
    """SplitMix64 keeps 64 bits: a seed outside [0, 2**64) would alias one
    inside it and print that seed's bytes."""
    for command in (["check", "--suite", "field-axioms", "--field", "f3",
                     "--ambient", "2"],
                    ["bridge", "--check", "thm37"]):
        code, _, err = run_cli(capsys, *command, "--seed", seed)
        assert code == 2
        assert "--seed" in err
    args = cli.build_parser().parse_args(
        ["check", "--seed", str(2 ** 64 - 1)])
    assert args.seed == 2 ** 64 - 1


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
    code, _, err = run_cli(capsys, *command)
    assert code == 2
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
    report = json.loads(out)
    assert report["law"] == "census-two-paths"
    assert report["suite"] == "lagrangian-census" and report["suite"] in SUITES


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


@pytest.mark.parametrize("workload", ["f2-exhaustive", "f3-sampled",
                                      "rat-sampled", "torsor-table"])
def test_workload_stdout_matches_the_benchmark_record(workload, capsys):
    """A benchmark workload's stdout, against its recorded digest."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    record = json.loads(path.read_text(encoding="utf-8"))[workload]
    code, out, err = run_cli(capsys, *record["argv"])
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == record["sha256"]


@pytest.mark.parametrize("argv,expected", [
    (("--form", "symplectic", "--n", "0", "--field", "f3", "--a", ""),
     '{"elements":[{"ambient":0,"basis":[],"field":"fp:3"}],'
     '"table":[[0]],"unit":0}'),
    (("--form", "split", "--n", "1", "--field", "f3", "--a", "1,0"),
     '{"elements":[{"ambient":2,"basis":[["0","1"]],"field":"fp:3"}],'
     '"table":[[0]],"unit":0}')], ids=["ambient-0", "one-element"])
def test_gtable_degenerate_shapes(capsys, argv, expected):
    """Chart blocks of width zero at ambient 0, and a one-element carrier."""
    code, out, err = run_cli(capsys, "gtable", *argv)
    assert code == 0 and not err
    assert out == expected + "\n"


def test_gtable_foreign_unit_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "gtable", "--form", "symplectic", "--n", "1", "--field", "f3",
        "--a", "1,0", "--unit", "1,0")
    assert code == 2
    assert "unit must lie in the carrier" in err


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


@pytest.mark.parametrize("action", ["--members", "--table", "--hull-check"])
def test_homotope_too_large_a_scan_is_usage_error(action, capsys):
    """all_matrices refuses 5^9 matrices before enumerating any of them."""
    code, out, err = run_cli(
        capsys, "homotope", "--family", "o", "--n", "3", "--field", "f5",
        "--A", "1,0,0;0,1,0;0,0,1", action)
    assert code == 2 and not out
    assert "too large to enumerate" in err and "Traceback" not in err


def test_homotope_needs_action(capsys):
    code, _, err = run_cli(
        capsys, "homotope", "--family", "gl", "--n", "1", "--field", "f3",
        "--A", "1")
    assert code == 2
    assert "one of" in err


@pytest.mark.parametrize("argv", [
    ("homotope", "--family", "gl", "--n", "1", "--field", "f3", "--A", "1",
     "--members", "--table"),
    ("homotope", "--family", "gl", "--n", "1", "--field", "f3", "--A", "1",
     "--members", "--hull-check"),
    ("lagrangian", "--form", "split", "--n", "1", "--field", "f3", "--list",
     "--count")], ids=["members-table", "members-hull-check", "list-count"])
def test_mode_flags_exclude_each_other(argv, capsys):
    """Two modes of one command exit 2; neither silently wins."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert not out and "not allowed with" in err


# The exact stdout of family commands that no benchmark workload runs.
PINNED = [
    (("homotope", "--family", "sp", "--n", "2", "--field", "f3",
      "--A", "0,1;2,0", "--table"),
     "bed36f2ac2150a187adbcf6e420be5df93b3484b4734bf7a5922baf68f18db64"),
    (("homotope", "--family", "o", "--n", "2", "--field", "f5",
      "--A", "1,0;0,0", "--hull-check"),
     '{"cases":101,"failures":0,"first_counterexample":null,'
     '"law":"hull-closure","notes":["family:o","param:1,0;0,0","hull:10"],'
     '"passed":true,"suite":"hull-closure"}\n'),
    (("homotope", "--family", "u", "--n", "1", "--field", "f9", "--A", "1",
      "--hull-check"),
     '{"cases":17,"failures":0,"first_counterexample":null,'
     '"law":"hull-closure","notes":["family:u","param:1","hull:4"],'
     '"passed":true,"suite":"hull-closure"}\n'),
    (("bridge", "--check", "prop41", "--family", "sp", "--n", "2",
      "--field", "f3"),
     '{"cases":577,"failures":0,"first_counterexample":null,'
     '"law":"sp-family-table","notes":["carrier:24"],"passed":true,'
     '"suite":"bridge"}\n')]


@pytest.mark.parametrize("argv,expected", PINNED,
                         ids=["sp-table", "o-hull", "u-hull", "sp-bridge"])
def test_family_outputs_are_pinned(argv, expected, capsys):
    """A long output is pinned by its sha256, a short one verbatim."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and not err
    if "\n" not in expected:
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == expected


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


@pytest.mark.parametrize("argv", [
    ("--n", "1", "--field", "f9"),
    ("--family", "sp", "--n", "1", "--field", "f9"),
    ("--n", "1", "--field", "fp2:5")])
def test_family_table_bridge_declines_a_conjugation(argv, capsys):
    """The o and sp conditions use the plain transpose: out of scope, exit 2."""
    code, out, err = run_cli(capsys, "bridge", "--check", "prop41", *argv)
    assert code == 2 and not out
    assert "plain transpose" in err


def test_unitary_bridge_runs_over_a_conjugation(capsys):
    code, out, err = run_cli(capsys, "bridge", "--check", "thm33", "--n", "1",
                             "--field", "f9")
    assert code == 0, err
    assert json.loads(out.strip())["notes"] == ["carrier:4", "unitary:4"]


def test_thm33_default_output(capsys):
    """Without --A, thm33 bridges the o family at its default parameter."""
    code, out, err = run_cli(capsys, "bridge", "--check", "thm33", "--n", "2",
                             "--field", "f3")
    assert code == 0, err
    assert out == (
        '{"cases":65,"failures":0,"first_counterexample":null,'
        '"law":"twisted-unitary-transport","notes":["carrier:8","unitary:8"],'
        '"passed":true,"suite":"bridge"}\n')


@pytest.mark.parametrize("token,n", [("thm33", "1"), ("thm33", "2"),
                                     ("thm37", "1")])
def test_only_prop41_takes_a_family(token, n, capsys):
    code, out, err = run_cli(capsys, "bridge", "--check", token,
                             "--family", "sp", "--n", n, "--field", "f3")
    assert code == 2 and not out
    assert "--family selects the prop41 table" in err


@pytest.mark.parametrize("argv,message", [
    (("thm37", "--A", "1", "--n", "1", "--field", "f3"), "--A sets"),
    (("prop41", "--trials", "5"), "--trials samples thm37 only"),
    (("prop41", "--seed", "3"), "--seed samples thm37 only"),
    (("thm33", "--exhaustive"), "--exhaustive samples thm37 only"),
    (("thm33", "--seed", "0", "--n", "2", "--field", "f3"),
     "--seed samples thm37 only")],
    ids=["thm37-A", "prop41-trials", "prop41-seed", "thm33-exhaustive",
         "thm33-seed"])
def test_bridge_refuses_options_its_check_ignores(argv, message, capsys):
    code, out, err = run_cli(capsys, "bridge", "--check", *argv)
    assert code == 2 and not out
    assert message in err


def test_thm37_samples_200_cases_at_seed_0_by_default(capsys):
    _, default, _ = run_cli(capsys, "bridge", "--check", "thm37")
    _, explicit, _ = run_cli(capsys, "bridge", "--check", "thm37",
                             "--trials", "200", "--seed", "0")
    assert json.loads(default)["cases"] == 200
    assert default == explicit


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


@pytest.mark.parametrize("dim", ["-1", "3"])
def test_enumerate_dim_out_of_range_is_usage_error(dim, capsys):
    """A dimension outside 0..ambient is bad input, not an empty list."""
    code, out, err = run_cli(capsys, "enumerate", "--field", "f3",
                             "--ambient", "2", "--dim", dim, "--count")
    assert code == 2 and not out
    assert "--dim must be in 0..2" in err


def test_enumerate_respects_ambient_cap(capsys):
    """The bound counts subspaces: F2^7 passes, F9^6 (540,023,488) and an
    absurd ambient exit 2 at once, before anything is enumerated."""
    code, out, err = run_cli(
        capsys, "enumerate", "--field", "f2", "--ambient", "7", "--count")
    assert code == 0 and not err
    assert int(out) == sum(gaussian_binomial(7, k, 2) for k in range(8))
    assert int(out) == 29212
    for argv in (("--field", "f9", "--ambient", "6"),
                 ("--field", "f2", "--ambient", "1000000", "--dim", "500000")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", *argv, "--count")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and not out
        assert "more than 1000000 subspaces" in err


def test_format_is_only_an_option_of_table_commands(capsys):
    code, _, err = run_cli(capsys, "check", "--format", "tsv", "--suite",
                           "all", "--field", "f2", "--ambient", "2")
    assert code == 2
    assert "--format" in err


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


@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "f2", "--ambient", "1"],
    ["check", "--suite", "all", "--field", "f2", "--ambient", "1",
     "--trials", "2"]],
    ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    """A missing folder or a directory as --out exits 2, not 1 ("law
    violated"), with a message in place of a traceback."""
    for out in (tmp_path / "missing" / "x", tmp_path):
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and not stdout
        assert err.startswith("torsorlab: cannot write --out")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "f3", "--ambient", "5"],
    ["enumerate", "--field", "f2", "--ambient", "2", "--count"]],
    ids=["large", "small"])
def test_unwritable_stdout_is_usage_error(argv):
    """A full stdout exits 2 with a message, at the write or at exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "torsorlab.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("torsorlab: cannot write")
    assert "Traceback" not in proc.stderr


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
