"""Experiment registry and config validation."""

import csv
import re

import pytest

from wumetric.cli import main
from wumetric.experiments import (
    EXPERIMENTS,
    GOLDEN_CASES,
    ConfigError,
    ExperimentConfig,
    golden_eta_hat,
    polydisc_cases,
    run_experiment,
)


def test_registry_shape():
    assert set(EXPERIMENTS) == {
        "polydisc_formula",
        "g2_usc",
        "gn_usc",
        "monotone",
        "rem_one",
        "rem_two",
        "elem_reinhardt_table",
        "product_check",
    }
    for name, exp in EXPERIMENTS.items():
        assert exp.description, name
        assert exp.columns, name


def test_polydisc_cases_are_fixed():
    cases = polydisc_cases()
    assert len(cases) == 20
    assert cases == polydisc_cases()  # deterministic
    from collections import Counter

    assert Counter(len(r) for r in cases) == {2: 7, 3: 7, 4: 6}
    assert all(0.2 <= x <= 3.0 for r in cases for x in r)


def test_golden_table_shape():
    assert len(GOLDEN_CASES) == 12
    kinds = {c.kind for c in GOLDEN_CASES}
    assert kinds <= {"gamma", "gamma_k", "azukawa", "kappa"}
    # both type branches and both support branches are represented
    assert {c.declared for c in GOLDEN_CASES} == {None, "irrational"}
    assert any(all(x > 0 for x in c.alpha) for c in GOLDEN_CASES)
    assert any(all(x < 0 for x in c.alpha) for c in GOLDEN_CASES)
    assert any(0.0 in c.a for c in GOLDEN_CASES)
    # eta-hat collapses exactly when too many coordinates vanish
    for c in GOLDEN_CASES:
        s = sum(1 for z in c.a if z != 0)
        want = c.expected if s >= len(c.alpha) - 1 else 0.0
        assert golden_eta_hat(c, c.expected) == want


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="experiment"):
        run_experiment(ExperimentConfig(experiment="nope"))
    with pytest.raises(ConfigError, match="t"):
        run_experiment(ExperimentConfig(experiment="g2_usc", t=1.0))
    with pytest.raises(ConfigError, match="t"):
        run_experiment(ExperimentConfig(experiment="gn_usc", n=3, t=1.5))
    with pytest.raises(ConfigError, match="n"):
        run_experiment(ExperimentConfig(experiment="gn_usc", n=2))
    with pytest.raises(ConfigError, match="x"):
        run_experiment(ExperimentConfig(experiment="g2_usc", x_grid=(0.5, 1.5)))
    with pytest.raises(ConfigError, match="m-list"):
        run_experiment(ExperimentConfig(experiment="monotone", m_list=(0.5,)))
    with pytest.raises(ConfigError, match="tol"):
        run_experiment(ExperimentConfig(experiment="rem_one", tolerance=2.0))


def test_rows_carry_tolerance_and_flags():
    rows = run_experiment(ExperimentConfig(experiment="rem_two"))
    assert rows
    for row in rows:
        assert row.tolerance >= 0.0
        assert isinstance(row.ok, bool)
        assert row.experiment == "rem_two"


# another valid value of each field an experiment may read; t = 2.2 in the
# base run exceeds n/2 at n = 4 too
OTHER_VALUES = {"n": 4, "x_grid": (0.2,), "t": 2.5, "m_list": (1.0, 2.0)}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_rows_move_with_exactly_the_declared_settings(name):
    # a declared setting moves the rows; any other is refused unless it
    # keeps its default
    reads = EXPERIMENTS[name].settings
    base = {"t": 2.2} if "t" in reads else {}
    rows = run_experiment(ExperimentConfig(experiment=name, **base))
    assert set(reads) <= set(OTHER_VALUES)
    for field, value in OTHER_VALUES.items():
        cfg = ExperimentConfig(experiment=name, **{**base, field: value})
        if field in reads:
            assert run_experiment(cfg) != rows, field
        else:
            message = f"{field.replace('_', '-')}: not a setting of experiment {name!r}"
            with pytest.raises(ConfigError, match=re.escape(message)):
                run_experiment(cfg)


def test_library_entry_refuses_settings_the_experiment_does_not_read():
    # the first unread field in sorted order names the error, as in `run`
    with pytest.raises(ConfigError) as err:
        run_experiment(ExperimentConfig("rem_one", n=50, m_list=(0.1,)))
    assert str(err.value) == "m-list: not a setting of experiment 'rem_one'"
    # a field given at its default is no setting at all
    default = ExperimentConfig("rem_one")
    assert run_experiment(ExperimentConfig("rem_one", n=3, t=1.6)) == run_experiment(default)


@pytest.mark.parametrize(
    "name, field, value, message",
    [
        ("rem_two", "n", 2, "n: must be >= 3"),
        ("monotone", "n", 2, "n: must be >= 3"),
        ("gn_usc", "x_grid", (), "x-grid: entries must lie in (0, 1)"),
        ("g2_usc", "x_grid", (1.0,), "x-grid: entries must lie in (0, 1)"),
        ("gn_usc", "t", 1.5, "t: must exceed n/2 = 1.5"),
        ("monotone", "m_list", (), "m-list: truncation levels must be >= 1"),
    ],
)
def test_each_read_setting_is_checked(name, field, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(ExperimentConfig(experiment=name, **{field: value}))


@pytest.mark.parametrize(
    "name, factor, failing",
    [
        ("mu", 1.001, {("g2_usc", "usc"): 3, ("gn_usc", "exit"): 3}),
        ("nu", 1.5, {("g2_usc", "exit"): 3, ("gn_usc", "exit"): 3}),
    ],
)
def test_registry_rows_catch_a_wrong_certificate_coordinate(
    monkeypatch, tmp_path, capsys, name, factor, failing
):
    # the usc rows check W against sqrt(2) / (1 - x^2), and the certificate
    # refuses a ratio off gn_ratio, both typed from x and t, so a wrong mu
    # or nu in every module that reads it fails usc rows (exit 1, counted
    # by kind) or stops the run with a SolverError (exit 3)
    import wumetric.domains
    import wumetric.experiments
    import wumetric.metrics
    import wumetric.wu

    true = getattr(wumetric.metrics, name)
    for module in (wumetric.metrics, wumetric.domains, wumetric.wu, wumetric.experiments):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda x: factor * true(x))
    got = {}
    for exp in EXPERIMENTS:
        out = tmp_path / f"{exp}.csv"
        code = main(["run", exp, "--out", str(out)])
        if code == 1:
            with open(out, newline="") as fh:
                for row in csv.DictReader(fh):
                    if row["ok"] == "false":
                        got[(exp, row["kind"])] = got.get((exp, row["kind"]), 0) + 1
        elif code:
            got[(exp, "exit")] = code
    assert got == failing
