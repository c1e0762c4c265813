"""Command-line contract: exit codes, CSV shape, config precedence."""

import csv
import math

import pytest

from wumetric import cli
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


def test_repeated_runs_build_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert run_cli(["run", "g2_usc"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert cli._build_parser.cache_info().misses == 1


def test_run_header_matches_documented_columns(tmp_path):
    out = tmp_path / "rows.csv"
    assert run_cli(["run", "rem_two", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == list(EXPERIMENTS["rem_two"].columns) + ["ok", "tolerance"]


def test_polydisc_formula_header_is_pinned(tmp_path):
    # the row checks its intercepts against the exact n * r_j^2 only
    out = tmp_path / "rows.csv"
    assert run_cli(["run", "polydisc_formula", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == (
        "case,n,r,a,a_expected,rel_err,w_tilde_e1,m,ok,tolerance"
    )


def test_unknown_experiment_is_usage_error(capsys):
    assert run_cli(["run", "warp_drive"]) == 2
    assert "config error" in capsys.readouterr().err
    assert run_cli(["run", "nope"]) == 2
    err = capsys.readouterr().err
    assert "experiment: unknown id 'nope'; choose from " + ", ".join(sorted(EXPERIMENTS)) in err


def test_x_is_a_prefix_of_x_grid(capsys):
    # there is no --x option: argparse reads the prefix as --x-grid
    outputs = []
    for flag in ("--x", "--x-grid"):
        assert run_cli(["run", "g2_usc", flag, "0.2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 5 and ",0.20000000000000001," in outputs[0]


@pytest.mark.parametrize("n, t", [("64", "33"), ("200", "101")])
def test_gn_usc_certifies_in_many_variables(tmp_path, capsys, n, t):
    out = tmp_path / "rows.csv"
    assert run_cli(["run", "gn_usc", "--n", n, "--t", t, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 8 and all(r["ok"] == "true" for r in rows)
    assert "8/8 rows ok" in capsys.readouterr().err


def test_invalid_parameter_is_usage_error(capsys):
    assert run_cli(["run", "gn_usc", "--t", "1.2"]) == 2
    err = capsys.readouterr().err
    assert "t" in err


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.ini"
    assert run_cli(["run", "rem_one", "--config", str(missing)]) == 2


def test_failing_tolerance_yields_exit_one(tmp_path, capsys):
    # a tolerance below solver resolution flips rows to failed (not in
    # g2_usc, whose n = 2 rows all come out exact in floats)
    out = tmp_path / "rows.csv"
    code = run_cli(["run", "gn_usc", "--tol", "1e-30", "--out", str(out)])
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


def test_unknown_run_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text("[g2_usc]\nx-gird = 0.2\n")
    assert run_cli(["run", "g2_usc", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x-gird: unknown key in section [g2_usc]" in captured.err


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
    assert [row[c] for c in ("w_tilde", "w", "m")] == [""] * 3
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


def test_eval_list_value_starting_with_a_minus_sign(capsys):
    # argparse reads "--alpha -1,-2" as two flags; "--alpha=-1,-2" is one
    code = run_cli(
        [
            "eval",
            "--domain", "elem_reinhardt",
            "--kind", "kappa",
            "--alpha=-1,-2",
            "--point", "2,1.5",
            "--vector", "1,1",
        ]
    )
    assert code == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert row["value"] == "0.60945445269730181"  # golden rat_ln_kappa
    with pytest.raises(SystemExit) as stop:
        run_cli(["eval", "--domain", "elem_reinhardt", "--kind", "kappa", "--alpha", "-1,-2"])
    assert stop.value.code == 2
    assert "argument --alpha: expected one argument" in capsys.readouterr().err


def _scale_grid():
    """The 40 eval cases of the scale grid, as (alpha, point) settings:
    alpha (1,2) and (2,3) at s (5,3), (1,-1) at (5s, 3/s) and (1,2) at
    (5s, 0) and (0, 3s), for s from 1e-7 down to 1e-300."""
    for s in (1e-7, 1e-20, 1e-50, 1e-75, 1e-100, 1e-150, 1e-200, 1e-300):
        yield "1,2", f"{5 * s!r},{3 * s!r}"
        yield "2,3", f"{5 * s!r},{3 * s!r}"
        yield "1,-1", f"{5 * s!r},{3 / s!r}"
        yield "1,2", f"{5 * s!r},0"
        yield "1,2", f"0,{3 * s!r}"


def test_eval_wu_matches_kappa_at_every_scale(capsys):
    # the Wu seminorm of the kappa ball is kappa itself, at any base-point
    # scale: a finite radius, however large, is a boundary sample, and the
    # rank-one frame is built from the covector scaled by a power of two.
    # Where the squared radius leaves the float range the run refuses with
    # exit 2 and a message; no case raises
    answered = sweep = 0
    for alpha, point in _scale_grid():
        argv = ["eval", "--domain", "elem_reinhardt", "--alpha", alpha,
                "--point", point, "--vector", "1,1", "--kind"]
        assert run_cli(argv + ["kappa"]) == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        kappa = float(row["value"])
        code = run_cli(argv + ["wu"])
        captured = capsys.readouterr()
        assert code in (0, 2), (alpha, point)
        sweep += kappa > 0.0
        if code == 2:
            assert captured.err.startswith("error: "), (alpha, point)
            continue
        (row,) = csv.DictReader(captured.out.splitlines())
        assert float(row["value"]) == pytest.approx(kappa, rel=1e-14, abs=0.0), (alpha, point)
        answered += kappa > 0.0
    assert sweep == 28
    assert answered >= 25


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
    # the closed-form columns stay empty for kind wu
    assert [row[c] for c in ("branch", "l", "s", "r", "scale")] == [""] * 5


def eval_argv(tmp_path, source, settings):
    """eval with every setting given by flags, or by an [eval] section."""
    if source == "flags":
        return ["eval"] + [
            arg for k, v in settings.items() for arg in (f"--{k.replace('_', '-')}", v)
        ]
    cfg = tmp_path / "eval.ini"
    cfg.write_text("[eval]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    return ["eval", "--config", str(cfg)]


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
    assert run_cli(eval_argv(tmp_path, source, settings) + ["--out", str(out)]) == 0
    (row,) = read_csv(out)
    assert row["domain"] == settings["domain"]
    assert float(row["w_tilde"]) == pytest.approx(w_tilde, rel=1e-10)
    assert row["m"] == m


def test_eval_bad_domain_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "eval.ini"
    cfg.write_text("[eval]\ndomain = gn\nn = three\nkind = wu\npoint = 0,0,0\nvector = 1,0,0\n")
    assert run_cli(["eval", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_eval_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "eval.ini"
    cfg.write_text("[eval]\ndomain = g2\nkind = wu\npoint = 0.3,0\nvectr = 1,0\n")
    assert run_cli(["eval", "--config", str(cfg), "--vector", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vectr: unknown key in section [eval]" in captured.err


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



GN3_WU = ["eval", "--domain", "gn", "--n", "3", "--kind", "wu",
          "--point", "0,0,0", "--vector", "1,0,0"]


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tol", "2", "tol"),
        ("--tol", "1", "tol"),
        ("--tol", "0", "tol"),
        ("--tol", "-1e-10", "tol"),
    ],
)
def test_eval_checks_tol_and_resolution_like_run(tmp_path, capsys, flag, value, field):
    # the same bound as ``run``: tol in (0, 1); neither takes a resolution
    # (test_neither_subcommand_takes_a_resolution)
    out = tmp_path / "row.csv"
    assert run_cli(GN3_WU + [f"{flag}={value}", "--out", str(out)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(["run", "rem_one", f"{flag}={value}", "--out", str(out)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


def test_eval_checks_tol_and_resolution_from_config(tmp_path, capsys):
    cfg = tmp_path / "eval.ini"
    cfg.write_text("[eval]\ndomain = gn\nn = 3\nkind = wu\npoint = 0,0,0\n"
                   "vector = 1,0,0\ntol = 2\n")
    assert run_cli(["eval", "--config", str(cfg)]) == 2
    assert "config error: tol:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, section",
    [(["run", "gn_usc"], "gn_usc"), (GN3_WU, "eval")],
)
def test_neither_subcommand_takes_a_resolution(tmp_path, capsys, argv, section):
    # every ball the CLI solves is sampled the same at any resolution
    # (test_domains.test_cli_balls_sample_the_same_at_every_resolution), so
    # there is no setting for it
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--resolution", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --resolution 64" in capsys.readouterr().err
    cfg = tmp_path / "settings.ini"
    cfg.write_text(f"[{section}]\nresolution = 64\n")
    out = tmp_path / "rows.csv"
    assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: resolution: unknown key in section [{section}]" in captured.err
    assert not out.exists()

def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        run_cli(["run"])  # experiment argument missing
    assert exc.value.code == 2


def test_descriptions_are_self_contained(capsys):
    run_cli(["list"])
    out = capsys.readouterr().out
    for token in ("Prop", "Lemma", "Remark", "§", "arxiv", "paper"):
        assert token not in out


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize(
    "settings, stray",
    [
        ({"domain": "polydisc", "r": "1,2", "big_c": "1"}, "big-c"),
        ({"domain": "gn", "n": "3", "alpha": "1,2", "point": "0,0,0", "vector": "1,0,0"},
         "alpha"),
        ({"domain": "g2", "n": "2"}, "n"),
        ({"domain": "g2", "type": "rational"}, "type"),
        ({"domain": "elem_reinhardt", "alpha": "1,1", "m": "4"}, "m"),
    ],
)
def test_eval_rejects_a_setting_the_domain_does_not_read(tmp_path, capsys, source, settings, stray):
    settings = {"kind": "wu", "point": "0,0", "vector": "1,0", **settings}
    out = tmp_path / "row.csv"
    assert run_cli(eval_argv(tmp_path, source, settings) + ["--out", str(out)]) == 2
    domain = settings["domain"]
    assert f"config error: {stray}: not a setting of domain {domain!r}" in capsys.readouterr().err
    assert not out.exists()


# a valid value of each run setting that some experiment reads
RUN_VALUES = {"n": "4", "x_grid": "0.2", "t": "1.3", "m_list": "1,4"}
UNREAD = [(name, key) for name, exp in EXPERIMENTS.items()
          for key in RUN_VALUES if key not in exp.settings]


def test_each_experiment_takes_its_settings_tol_and_out():
    # 24 accepted experiment x setting pairs, and 24 refused
    assert len(UNREAD) == 24
    assert sum(len(exp.settings) + 2 for exp in EXPERIMENTS.values()) == 24
    assert [key for key, _, _ in cli.RUN_SETTINGS] == list(RUN_VALUES) + ["tol", "out"]


@pytest.mark.parametrize("name, key", UNREAD)
def test_run_refuses_a_setting_the_experiment_does_not_read(
    tmp_path, capsys, monkeypatch, name, key
):
    def no_work(*args, **kwargs):
        raise AssertionError("computed rows for a setting the experiment does not read")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    dashed = key.replace("_", "-")
    cfg = tmp_path / "settings.ini"
    out = tmp_path / "rows.csv"
    for spelling in (None, key, dashed):
        if spelling is None:
            given = [f"--{dashed}", RUN_VALUES[key]]
        else:
            cfg.write_text(f"[{name}]\n{spelling} = {RUN_VALUES[key]}\n")
            given = ["--config", str(cfg)]
        assert run_cli(["run", name, *given, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {dashed}: not a setting of experiment {name!r}\n"
        assert not out.exists()


def test_run_help_lists_the_settings_of_each_experiment(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "settings (plus --tol, --out) per experiment:" in help_text
    for name, exp in EXPERIMENTS.items():
        flags = ", ".join(f"--{key.replace('_', '-')}" for key in exp.settings) or "none"
        assert f"  {name}: {','.join(exp.columns)}\n    settings: {flags}\n" in help_text
    assert "    settings: --n, --x-grid, --t\n" in help_text  # gn_usc


@pytest.mark.parametrize(
    "kind, k, point",
    [("gamma", "2", "0.5,0"), ("wu", "3", "0.5,0.5"), ("kappa", "1", "0.5,0")],
)
def test_eval_refuses_k_for_a_kind_other_than_gamma_k(tmp_path, capsys, kind, k, point):
    # gamma reads no k: gamma^(2) at this point is 4.9497474683058327, and
    # gamma itself, 0, used to be written on a row with k = 2
    out = tmp_path / "row.csv"
    argv = ["eval", "--domain", "elem_reinhardt", "--alpha", "1,2", "--kind", kind,
            "--point", point, "--vector", "3,7", "--out", str(out)]
    assert run_cli(argv + ["--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: k: only kind gamma_k reads it\n"
    assert not out.exists()
    cfg = tmp_path / "eval.ini"
    cfg.write_text(f"[eval]\nk = {k}\n")
    assert run_cli(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "config error: k: only kind gamma_k reads it\n"
    assert not out.exists()


def test_eval_gamma_k_reads_k(tmp_path):
    out = tmp_path / "row.csv"
    argv = ["eval", "--domain", "elem_reinhardt", "--alpha", "1,2", "--point", "0.5,0",
            "--vector", "3,7", "--out", str(out)]
    assert run_cli(argv + ["--kind", "gamma_k", "--k", "2"]) == 0
    (row,) = read_csv(out)
    assert (row["k"], row["value"]) == ("2", "4.9497474683058327")
    assert run_cli(argv + ["--kind", "gamma"]) == 0
    (row,) = read_csv(out)
    assert (row["k"], row["value"]) == ("", "0")


@pytest.mark.parametrize(
    "given, message",
    [([], "k: required for kind gamma_k"), (["--k", "0"], "k: must be >= 1"),
     (["--k", "-3"], "k: must be >= 1")],
)
def test_eval_gamma_k_names_a_missing_or_bad_k(tmp_path, capsys, given, message):
    out = tmp_path / "row.csv"
    argv = ["eval", "--domain", "elem_reinhardt", "--alpha", "1,2", "--kind", "gamma_k",
            "--point", "0.5,0", "--vector", "3,7", "--out", str(out)]
    assert run_cli(argv + given) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# each setting runs in the first context that gives it (any context for out)
RUN_CONTEXTS = (
    ("rem_two", {"n": "4"}),
    ("g2_usc", {"x_grid": "0.2,0.1", "t": "1.3"}),
    ("monotone", {"m_list": "1,4"}),
    ("rem_one", {"tol": "1e-9"}),
)
EVAL_CONTEXTS = (
    ("eval", {"domain": "elem_reinhardt", "alpha": "1,2", "big_c": "0.5", "type": "rational",
              "kind": "gamma_k", "k": "2", "point": "0.3,0.2", "vector": "1,0", "tol": "1e-9"}),
    ("eval", {"domain": "gn", "n": "3", "kind": "wu", "point": "0,0,0", "vector": "1,0,0"}),
    ("eval", {"domain": "truncated_gn", "n": "3", "m": "4", "kind": "wu", "point": "0,0,0",
              "vector": "1,0,0"}),
    ("eval", {"domain": "polydisc", "r": "1,2", "kind": "wu", "point": "0,0",
              "vector": "1,0"}),
)
# a value that each setting rejects; None for free text
MALFORMED = {
    "n": "three", "x_grid": "", "t": "abc", "m_list": "1,x", "alpha": "1,a", "big_c": "zz",
    "tol": "x", "out": None, "domain": "bogus", "kind": "bogus",
    "point": "", "vector": "x,0", "type": "bogus", "r": "abc", "m": "x", "k": "x",
}
SETTINGS = [("run", key) for key, _, _ in cli.RUN_SETTINGS] + [
    ("eval", key) for key, _, _ in cli.EVAL_SETTINGS
]


@pytest.mark.parametrize("command, key", SETTINGS)
def test_each_setting_has_one_parser(tmp_path, capsys, command, key):
    contexts = RUN_CONTEXTS if command == "run" else EVAL_CONTEXTS
    section, context = next((s, c) for s, c in contexts if key in c or key == "out")
    out = tmp_path / "rows.csv"
    settings = dict(context, out=str(out))
    head = ["run", section] if command == "run" else ["eval"]

    def argv(value, spelling):
        """key set to value by its flag (spelling None) or by an INI key."""
        flags = [arg for k, v in settings.items() if k != key
                 for arg in (f"--{k.replace('_', '-')}", v)]
        if spelling is None:
            return head + flags + [f"--{key.replace('_', '-')}", value]
        cfg = tmp_path / "settings.ini"
        cfg.write_text(f"[{section}]\n{spelling} = {value}\n")
        return head + flags + ["--config", str(cfg)]

    spellings = (None, key, key.replace("_", "-"))
    outputs = []
    for spelling in spellings:
        assert run_cli(argv(settings[key], spelling)) == 0
        outputs.append(out.read_bytes())
        out.unlink()
    assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()
    if MALFORMED[key] is None:
        return
    for spelling in spellings[:2]:
        assert run_cli(argv(MALFORMED[key], spelling)) == 2
        assert f"config error: {key.replace('_', '-')}:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "rem_one"],
        ["eval", "--domain", "gn", "--n", "3", "--kind", "wu", "--point", "0,0,0",
         "--vector", "1,0,0"],
    ],
)
def test_unwritable_out_is_a_config_error_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("computed rows for an unwritable --out")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "eval_metric", no_work)
    for out in (tmp_path / "missing" / "rows.csv", tmp_path):
        assert run_cli(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: out: cannot write {str(out)!r}:" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_an_existing_out_file_is_overwritten_by_the_rows(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    out.write_text("stale\n")
    assert run_cli(["run", "rem_one", "--out", str(out)]) == 0
    assert run_cli(["run", "rem_one"]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize(
    "settings, key",
    [
        ({"domain": "elem_reinhardt", "alpha": "1,2", "kind": "gamma", "point": "0.5,0.3"},
         "alpha"),
        ({"domain": "polydisc", "r": "1,2", "kind": "wu", "point": "0,0"}, "r"),
    ],
)
@pytest.mark.parametrize("source", ["flags", "ini"])
def test_eval_domain_list_takes_a_trailing_comma(tmp_path, capsys, source, settings, key):
    # each domain setting is parsed once, by the parser --point uses too
    settings = {**settings, "vector": "1,1"}
    rows = []
    for text in (settings[key], settings[key] + ","):
        assert run_cli(eval_argv(tmp_path, source, {**settings, key: text})) == 0
        rows.append(capsys.readouterr().out)
    assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "settings, missing",
    [
        ({"domain": "gn"}, "n"),
        ({"domain": "truncated_gn", "m": "4"}, "n"),
        ({"domain": "truncated_gn", "n": "3"}, "m"),
        ({"domain": "polydisc"}, "r"),
        ({"domain": "elem_reinhardt", "big_c": "0.5"}, "alpha"),
    ],
)
def test_eval_names_a_missing_domain_setting(tmp_path, capsys, settings, missing):
    settings = {"kind": "wu", "point": "0,0,0", "vector": "1,0,0", **settings}
    out = tmp_path / "row.csv"
    assert run_cli(eval_argv(tmp_path, "flags", settings) + ["--out", str(out)]) == 2
    domain = settings["domain"]
    assert f"config error: {missing}: required for domain {domain!r}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, section, key",
    [
        (["run", "g2_usc"], "g2_usc", "x_grid"),
        (["eval", "--domain", "elem_reinhardt", "--alpha", "1,1", "--kind", "gamma",
          "--point", "0.5,0.5", "--vector", "1,0"], "eval", "big_c"),
    ],
)
def test_both_spellings_of_one_key_are_a_config_error(tmp_path, capsys, argv, section, key):
    dashed = key.replace("_", "-")
    cfg = tmp_path / "twice.ini"
    out = tmp_path / "rows.csv"
    # equal values too: one setting is given once
    for first, second in (("0.2", "0.3"), ("0.2", "0.2")):
        cfg.write_text(f"[{section}]\n{key} = {first}\n{dashed} = {second}\n")
        assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {dashed}: given twice in section [{section}]" in err
        assert not out.exists()
