"""Command-line contract: exit codes, CSV shape, config precedence."""

import csv
import math

import pytest

from wumetric.cli import main
from wumetric.experiments import EXPERIMENTS


def run_cli(argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_list_enumerates_every_experiment(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert len(EXPERIMENTS) == 8


def test_run_writes_csv_and_passes(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run_cli(["run", "rem_one", "--out", str(out)]) == 0
    assert "[PASS]" in capsys.readouterr().err
    rows = read_csv(out)
    assert all(r["ok"] == "true" for r in rows)
    generic = next(r for r in rows if r["kind"] == "generic")
    assert generic["w_e1"] == "1.4142135623730951"


def test_run_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["run", "g2_usc", "--out", str(a)]) == 0
    assert run_cli(["run", "g2_usc", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_header_matches_documented_columns(tmp_path):
    out = tmp_path / "rows.csv"
    assert run_cli(["run", "rem_two", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == list(EXPERIMENTS["rem_two"].columns) + ["ok", "tolerance"]


def test_unknown_experiment_is_usage_error(capsys):
    assert run_cli(["run", "warp_drive"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_parameter_is_usage_error(capsys):
    assert run_cli(["run", "gn_usc", "--t", "1.2"]) == 2
    err = capsys.readouterr().err
    assert "t" in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert run_cli(["run", "rem_one", "--config", str(missing)]) == 2


def test_failing_tolerance_yields_exit_one(tmp_path, capsys):
    # a tolerance below solver resolution flips rows to failed
    out = tmp_path / "rows.csv"
    code = run_cli(["run", "g2_usc", "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().err
    assert any(r["ok"] == "false" for r in read_csv(out))


def test_config_file_supplies_parameters(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[g2_usc]\nt = 1.3\nx-grid = 0.2, 0.1\n")
    out = tmp_path / "rows.csv"
    assert run_cli(["run", "g2_usc", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert {float(r["x"]) for r in rows if r["kind"] == "usc"} == {0.2, 0.1}
    cert = [r for r in rows if r["kind"] == "certificate"]
    assert all(float(r["t"]) == 1.3 for r in cert)


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[g2_usc]\nt = 1.3\n")
    out = tmp_path / "rows.csv"
    assert (
        run_cli(
            ["run", "g2_usc", "--config", str(cfg), "--t", "1.15", "--out", str(out)]
        )
        == 0
    )
    cert = [r for r in read_csv(out) if r["kind"] == "certificate"]
    assert all(float(r["t"]) == 1.15 for r in cert)


def test_eval_reports_closed_form_value(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = run_cli(
        [
            "eval",
            "--domain", "elem_reinhardt",
            "--alpha", "1,1",
            "--kind", "gamma",
            "--point", "0.5,0.5",
            "--vector", "1,0",
            "--out", str(out),
        ]
    )
    assert code == 0
    (row,) = read_csv(out)
    assert row["value"] == "0.53333333333333333"  # 8/15
    assert "value" in capsys.readouterr().err


def test_eval_kappa_at_moduli_point(tmp_path):
    out = tmp_path / "row.csv"
    assert (
        run_cli(
            [
                "eval",
                "--domain", "elem_reinhardt",
                "--alpha", "1,1",
                "--kind", "kappa",
                "--point", "0.5,0",
                "--vector", "0,1",
                "--out", str(out),
            ]
        )
        == 0
    )
    (row,) = read_csv(out)
    assert float(row["value"]) == pytest.approx(0.5, rel=1e-12)


def test_eval_wu_on_polydisc(tmp_path):
    out = tmp_path / "row.csv"
    assert (
        run_cli(
            [
                "eval",
                "--domain", "polydisc",
                "--r", "1,2",
                "--kind", "wu",
                "--point", "0,0",
                "--vector", "1,0",
                "--out", str(out),
            ]
        )
        == 0
    )
    (row,) = read_csv(out)
    assert row["w_tilde"] == "0.70710678118654757"
    assert row["m"] == "2"
    assert float(row["w"]) == pytest.approx(1.0, rel=1e-10)


WU_EVAL_CASES = [
    # (settings, w_tilde(vector), m): the g2 point uses the extremal-disc
    # cloud (mu(0.3), 0), (0, nu(0.3)); the origins use the domain's ball
    ({"domain": "g2", "point": "0.3,0", "vector": "1,0"}, 1.0 / 0.91, "2"),
    ({"domain": "gn", "n": "3", "point": "0,0,0", "vector": "1,0,0"}, math.sqrt(0.5), "2"),
    (
        {"domain": "truncated_gn", "n": "3", "m": "4", "point": "0,0,0", "vector": "1,0,0"},
        math.sqrt(2.0 / 3.0),
        "3",
    ),
]


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("settings,w_tilde,m", WU_EVAL_CASES)
def test_eval_wu_on_g2_family(tmp_path, source, settings, w_tilde, m):
    settings = dict(settings, kind="wu")
    out = tmp_path / "row.csv"
    if source == "flags":
        argv = ["eval"] + [arg for k, v in settings.items() for arg in (f"--{k}", v)]
    else:
        cfg = tmp_path / "eval.ini"
        cfg.write_text("[eval]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        argv = ["eval", "--config", str(cfg)]
    assert run_cli(argv + ["--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert row["domain"] == settings["domain"]
    assert float(row["w_tilde"]) == pytest.approx(w_tilde, rel=1e-10)
    assert row["m"] == m


def test_eval_bad_domain_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "eval.ini"
    cfg.write_text("[eval]\ndomain = gn\nn = three\nkind = wu\npoint = 0,0,0\nvector = 1,0,0\n")
    assert run_cli(["eval", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_eval_from_config_section(tmp_path):
    cfg = tmp_path / "eval.ini"
    cfg.write_text(
        "[eval]\ndomain = elem_reinhardt\nalpha = 1,1\nkind = gamma\n"
        "point = 0.5,0.5\nvector = 1,0\n"
    )
    out = tmp_path / "row.csv"
    assert run_cli(["eval", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert row["value"] == "0.53333333333333333"


def test_eval_requires_domain_kind_point_vector(capsys):
    assert run_cli(["eval", "--kind", "gamma"]) == 2
    assert "config error" in capsys.readouterr().err


def test_eval_rejects_unknown_kind(capsys):
    code = run_cli(
        [
            "eval",
            "--domain", "polydisc",
            "--r", "1",
            "--kind", "hermitian",
            "--point", "0",
            "--vector", "1",
        ]
    )
    assert code == 2


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        run_cli(["run"])  # experiment argument missing
    assert exc.value.code == 2


def test_descriptions_are_self_contained(capsys):
    run_cli(["list"])
    out = capsys.readouterr().out
    for token in ("Prop", "Lemma", "Remark", "§", "arxiv", "paper"):
        assert token not in out
