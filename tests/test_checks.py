"""Tests for the named check-suite registry and its runner."""

import hashlib

import pytest

from torsorlab.checks import SUITES, SuiteNotApplicable, list_suites, run_all, run_suite
from torsorlab.fields import PrimeField, Rationals, field_from_spec
from torsorlab.reports import CheckConfig, Report, skipped_report

# sha256 of the newline-joined JSON reports of run_all, recorded once.  The
# laws, their case sources and their order must reproduce these bytes, so a
# refactoring that changes what any law checks shows up here.
GOLDEN = {
    ("f2", 2, True, 200, 0):
        "6f2040fd9f472aed0a0fa4418e4e8f9a641ffd25215e4fa912194e7d2170a076",
    ("rat", 2, False, 6, 1):
        "06004fdc662d3830da7da540cfc2b80a973872d7c1dd7f6d56fe8fc19d9b6186",
    ("f2", 2, False, 5, 3):
        "864afc7f8050e6f78d761dba39da52b8fcecfc55161c1fe673410e6a6219cb45",
    ("f3", 2, False, 8, 0):
        "9bf3756c921251857f17ee1f47114a5d178ba760a08ac452816406a97e198c9d",
    ("f3", 4, False, 3, 0):
        "e35cba393129a497cf7fd6c9ee955e32e8e3f7b4c55fb8cbc4a5cda5ac869e6e",
    ("f3", 3, False, 4, 0):
        "2934855daf8645d529d16e1d9712b73243fd232aa177828e85f70f156bb6c30d",
    ("f9", 2, False, 4, 0):
        "b7ee9f5198f40fb99661022e0bdb105323b38cd21084bdcd29b084cbcbe63eeb",
    ("gauss", 2, False, 4, 0):
        "7215d3af2875fb01d7cf6de9befc3e1511335a0fcca4658fdd4f4beef1a22af0",
    ("f2", 4, False, 3, 1):
        "bd039249b765fa0b6c50d55d300456357607f6b7dcab9043d095ea5383c41231",
}


def assert_golden(reports, spec, ambient, cfg):
    text = "\n".join(r.to_json() for r in reports)
    key = (spec, ambient, cfg.exhaustive, cfg.trials, cfg.seed)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[key], key


def test_registry_shape():
    rows = list_suites()
    assert len(rows) == len(SUITES)
    names = [name for name, _, _ in rows]
    assert names == list(SUITES)
    assert len(set(names)) == len(names)
    for name, module, description in rows:
        assert name and module and description
        assert name == name.lower()
        assert " " not in name


def test_every_suite_runs_or_declines_f3():
    """Each suite either returns passing reports or refuses with a reason."""
    f3 = PrimeField(3)
    cfg = CheckConfig(trials=8, seed=0)
    for name in SUITES:
        try:
            reports = run_suite(name, f3, 2, cfg)
        except SuiteNotApplicable:
            continue
        assert reports, name
        for r in reports:
            assert isinstance(r, Report)
            assert r.failures == 0, (name, r.law, r.first_counterexample)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite", PrimeField(3), 2, CheckConfig())


def test_run_all_collects_and_skips():
    """run_all never raises; inapplicable suites produce skip reports."""
    rat = Rationals()
    cfg = CheckConfig(trials=6, seed=1)
    reports = run_all(rat, 2, cfg)
    assert reports
    assert_golden(reports, "rat", 2, cfg)
    skipped = [r for r in reports if r.law == "skipped"]
    assert skipped, "infinite fields must skip the enumeration suites"
    for r in reports:
        if r.law == "skipped":
            assert any(n.startswith("skipped:") for n in r.notes)
        else:
            assert r.failures == 0, (r.suite, r.law, r.first_counterexample)


def test_finite_only_suites_decline_infinite_fields():
    rat = Rationals()
    cfg = CheckConfig(trials=4, seed=0)
    for name in ("hull-closure", "lagrangian-census", "semitorsor-closure"):
        with pytest.raises(SuiteNotApplicable):
            run_suite(name, rat, 2, cfg)


# The suites that work form by form, each refusing an odd ambient before
# any of its laws runs.
PER_FORM_SUITES = (
    "ortho-lattice", "adjoint-reversal", "adjoint-shift", "adjoint-involutive",
    "adjoint-image-inclusion", "involution-duality", "involution-antihom",
    "torsor-g", "opposite-torsor", "lagrangian-census", "semitorsor-closure")


def test_even_ambient_suites_decline_odd_ambient():
    f3 = PrimeField(3)
    cfg = CheckConfig(trials=4, seed=0)
    for name in PER_FORM_SUITES:
        with pytest.raises(SuiteNotApplicable, match="positive even ambient"):
            run_suite(name, f3, 3, cfg)


# (suite, law) of each report filed under another suite's name: the bridge
# suite runs the chart-product law, which names the homotope suite.
MISFILED = {("bridge", "pentary-chart-product"): "homotope"}


def test_reports_carry_suite_names():
    """A report names the suite whose row ran it, so a row that runs a law
    of another suite shows here."""
    cfg = CheckConfig(trials=4, seed=0)
    for spec in ("f3", "f9"):
        field = field_from_spec(spec)
        misfiled = {}
        for name in SUITES:
            try:
                reports = run_suite(name, field, 2, cfg)
            except SuiteNotApplicable:
                continue
            misfiled.update(((name, r.law), r.suite) for r in reports
                            if r.suite != name)
        assert misfiled == MISFILED, spec
    f2 = PrimeField(2)
    cfg = CheckConfig(trials=5, seed=2)
    for name in ("field-axioms", "global-laws", "m-symmetries"):
        for r in run_suite(name, f2, 2, cfg):
            assert r.suite == name


@pytest.mark.parametrize("spec,ambient,trials,seed", [
    ("f3", 2, 8, 0), ("f3", 4, 3, 0), ("rat", 2, 6, 1)])
def test_suites_alone_concatenate_to_run_all(spec, ambient, trials, seed):
    """A suite's reports do not depend on the run around it: each suite in
    its own check run, in registry order, gives the reports of run_all."""
    field = field_from_spec(spec)
    cfg = CheckConfig(trials=trials, seed=seed)
    alone = []
    for name in SUITES:
        try:
            alone += run_suite(name, field, ambient, cfg)
        except SuiteNotApplicable as exc:
            alone.append(skipped_report(name, exc))
    assert alone == run_all(field, ambient, cfg)


def test_report_keys_unique_within_run():
    """Suite, law, and notes together identify every report of one run."""
    f2 = PrimeField(2)
    cfg = CheckConfig(trials=5, seed=3)
    reports = run_all(f2, 2, cfg)
    keys = [(r.suite, r.law, r.notes) for r in reports]
    assert len(keys) == len(set(keys))
    assert_golden(reports, "f2", 2, cfg)


def test_exhaustive_flagship_run():
    """The full exhaustive sweep over the smallest field passes everywhere."""
    f2 = field_from_spec("f2")
    cfg = CheckConfig(exhaustive=True)
    reports = run_all(f2, 2, cfg)
    assert len(reports) >= 90
    assert_golden(reports, "f2", 2, cfg)
    bad = [(r.suite, r.law) for r in reports if r.failures]
    assert not bad
    assert not [r for r in reports if r.law == "skipped"]


@pytest.mark.parametrize("spec,ambient,trials", [
    ("f3", 2, 8), ("f3", 4, 3), ("f3", 3, 4), ("f9", 2, 4), ("gauss", 2, 4)])
def test_run_all_bytes_match_golden(spec, ambient, trials):
    """Sampled runs over other fields and ambients keep their exact bytes."""
    cfg = CheckConfig(trials=trials, seed=0)
    assert_golden(run_all(field_from_spec(spec), ambient, cfg), spec, ambient,
                  cfg)


def test_run_all_bytes_match_golden_over_full_fixed_sets():
    """Over F2 at ambient 4, torsor-g, opposite-torsor and semitorsor-closure
    sweep fixed sets of 15 points; the other goldens reach 3 or 4."""
    cfg = CheckConfig(trials=3, seed=1)
    assert_golden(run_all(PrimeField(2), 4, cfg), "f2", 4, cfg)
