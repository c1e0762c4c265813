"""Command-line front end: experiment runner, one-off metric evaluation,
CSV emission and INI-style configuration.

Exit codes: 0 all row flags pass, 1 some assertion failed, 2 usage or
configuration error, 3 solver failure.  Output is deterministic: identical
configuration produces byte-identical CSV (17 significant digits, fixed
column order, lone newline terminators).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import math
import os
import sys
from typing import IO, Sequence

from .domains import (
    DOMAIN_SETTINGS,
    DomainSpec,
    frame_coordinates,
    indicatrix_at,
    spec_from_settings,
)
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    experiment,
    run_experiment,
    validate_solver_settings,
)
from .metrics import MultiIndex, elem_reinhardt_metric_info
from .wu import DEFAULT_SOLVER_TOL, SolverError, wu_metric

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

EVAL_COLUMNS = (
    "domain", "kind", "k", "a", "x_vec", "value", "w_tilde", "w", "m",
    "branch", "l", "s", "r", "scale",
)


# ---------------------------------------------------------------------------
# CSV formatting

def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _fmt(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, complex):
        if v.imag == 0.0:
            return _fmt_float(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return f"{_fmt_float(v.real)}{sign}{_fmt_float(abs(v.imag))}j"
    if isinstance(v, (tuple, list)):
        return ";".join(_fmt(x) for x in v)
    return str(v)


def write_rows(rows: Sequence[ResultRow], columns: Sequence[str], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = [_fmt(row.data.get(c)) for c in columns if c not in ("ok", "tolerance")]
        cells.append(_fmt(row.ok))
        cells.append(_fmt(row.tolerance))
        writer.writerow(cells)


def _check_out(out: str | None) -> None:
    """Fail before any work if the CSV path cannot be opened for writing;
    the check leaves no file behind."""
    if out is None:
        return
    existed = os.path.exists(out)
    try:
        with open(out, "a"):
            pass
    except OSError as exc:
        raise ConfigError(f"out: cannot write {out!r}: {exc.strerror}") from exc
    if not existed:
        os.remove(out)


def _emit(rows: Sequence[ResultRow], columns: Sequence[str], out: str | None) -> None:
    if out is None:
        write_rows(rows, columns, sys.stdout)
    else:
        with open(out, "w", newline="") as f:
            write_rows(rows, columns, f)


# ---------------------------------------------------------------------------
# one-off evaluation

def eval_metric(
    spec: DomainSpec,
    kind: str,
    a: Sequence[complex],
    X: Sequence[complex],
    k: int | None = None,
    tolerance: float = DEFAULT_SOLVER_TOL,
) -> ResultRow:
    """Single metric evaluation with branch diagnostics.

    kind 'wu' runs the indicatrix pipeline of the domain at a and reports
    the W-tilde/W values in direction X; the other kinds evaluate the
    displayed closed forms (elem_reinhardt domains only).
    """
    validate_solver_settings(tolerance)
    if kind not in ("wu", "gamma", "gamma_k", "azukawa", "kappa"):
        raise ConfigError(
            f"kind: unknown {kind!r}; expected gamma, gamma_k, azukawa, kappa or wu"
        )
    if k is not None and kind != "gamma_k":
        raise ConfigError("k: only kind gamma_k reads it")
    if kind == "gamma_k" and k is None:
        raise ConfigError("k: required for kind gamma_k")
    if kind == "gamma_k" and k < 1:
        raise ConfigError("k: must be >= 1")
    at = tuple(complex(c) for c in a)
    xv = tuple(complex(c) for c in X)
    # a column that the kind leaves out is written as an empty cell
    data: dict[str, object] = {"domain": spec.variant, "kind": kind, "k": k, "a": at, "x_vec": xv}
    if kind == "wu":
        sand = indicatrix_at(spec, at)
        res = wu_metric(sand.inner, tolerance=tolerance)
        aligned = frame_coordinates(sand.alignment, xv)
        data.update(
            value=res.w_tilde(aligned),
            w_tilde=res.w_tilde(aligned),
            w=res.w(aligned),
            m=res.m,
        )
    else:
        if spec.variant != "elem_reinhardt":
            raise ConfigError(
                f"kind: {kind!r} needs an elem_reinhardt domain, got {spec.variant!r}"
            )
        mi = MultiIndex(spec.alpha, spec.declared_type)
        value, info = elem_reinhardt_metric_info(kind, mi, spec.big_c, at, xv, k)
        data.update(
            value=value,
            branch=info.case,
            l=info.l,
            s=info.s,
            r=info.r,
            scale=info.scale,
        )
    return ResultRow(experiment="eval", data=data, ok=True, tolerance=tolerance)


# ---------------------------------------------------------------------------
# settings: one entry per setting gives its flag --key (dashes for
# underscores), its INI key (either spelling) and the one parser that reads
# the flag text and the INI text alike

def _list(cast):
    def parse(text: str) -> tuple:
        values = tuple(cast(part) for part in text.split(",") if part.strip())
        if not values:
            raise ValueError("empty list")
        return values
    return parse


def _declared_type(text: str) -> str:
    if text not in ("rational", "irrational"):
        raise ValueError("expected rational or irrational")
    return text


RUN_SETTINGS = (
    ("n", "dimension parameter", int),
    ("x_grid", "comma-separated x values", _list(float)),
    ("t", "pinned first intercept", float),
    ("m_list", "comma-separated truncation levels", _list(float)),
    ("tol", "solver/comparison tolerance", float),
    ("out", "CSV output path (default: stdout)", str),
)
EVAL_SETTINGS = (
    ("domain", "elem_reinhardt|polydisc|g2|gn|truncated_gn", str),
    ("kind", "gamma|gamma_k|azukawa|kappa|wu", str),
    ("point", "comma-separated complex coordinates", _list(complex)),
    ("vector", "comma-separated complex direction", _list(complex)),
    ("alpha", "exponent vector (elem_reinhardt)", _list(float)),
    ("big_c", "domain constant C", float),
    ("type", "rational|irrational: override exponent type detection", _declared_type),
    ("r", "polydisc radii, comma-separated", _list(float)),
    ("n", "dimension (gn, truncated_gn)", int),
    ("m", "truncation level (truncated_gn)", float),
    ("k", "order for kind gamma_k", int),
    ("tol", "solver tolerance", float),
    ("out", "CSV output path (default: stdout)", str),
)


def _dashed(key: str) -> str:
    return key.replace("_", "-")


def _read_settings(
    args: argparse.Namespace, name: str, table, reads: Sequence[str] | None = None
) -> dict[str, object]:
    """Each setting of table that is given, by its flag or else by its key in
    section [name] of the --config file, through the setting's parser.

    ``reads`` names the settings of experiment ``name`` (default: all of
    table); giving another setting of table is a config error."""
    if reads is None:
        reads = [key for key, _, _ in table]
    section: dict[str, str] = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise ConfigError(f"config: file {args.config!r} not found")
        ini = configparser.ConfigParser()
        try:
            ini.read(args.config)
            if ini.has_section(name):
                section = dict(ini.items(name))
        except configparser.Error as exc:
            raise ConfigError(f"config: {exc}") from exc
    # a config key that no setting reads is a typo, not a default
    unknown = sorted(set(section) - {s for key, _, _ in table for s in (key, _dashed(key))})
    if unknown:
        raise ConfigError(
            f"{unknown[0]}: unknown key in section [{name}]; "
            f"expected one of {', '.join(sorted(map(_dashed, reads)))}"
        )
    unread = sorted(
        _dashed(key) for key, _, _ in table
        if key not in reads
        and (getattr(args, key) is not None or key in section or _dashed(key) in section)
    )
    if unread:
        raise ConfigError(f"{unread[0]}: not a setting of experiment {name!r}")
    values: dict[str, object] = {}
    for key, _, parse in table:
        if key != _dashed(key) and key in section and _dashed(key) in section:
            raise ConfigError(
                f"{_dashed(key)}: given twice in section [{name}], as {key} and {_dashed(key)}"
            )
        text = getattr(args, key)
        if text is None:
            text = section.get(key, section.get(_dashed(key)))
        if text is not None:
            try:
                values[key] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{_dashed(key)}: cannot parse {text!r}: {exc}") from exc
    return values


# ---------------------------------------------------------------------------
# subcommands

def _run_help() -> str:
    lines = ["columns (plus ok, tolerance) and settings (plus --tol, --out) per experiment:"]
    for name, exp in EXPERIMENTS.items():
        flags = ", ".join("--" + _dashed(key) for key in exp.settings) or "none"
        lines += [f"  {name}: {','.join(exp.columns)}", f"    settings: {flags}"]
    return "\n".join(lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="wumetric",
        description="Wu pseudometrics of Reinhardt indicatrices: experiment "
        "runner and metric evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run an experiment, emit CSV",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_run_help(),
    )
    run_p.add_argument("experiment", help="experiment id; see `wumetric list`")
    run_p.add_argument("--config", help="INI file, section [<experiment>]")
    eval_p = sub.add_parser("eval", help="evaluate one metric at one point")
    eval_p.add_argument("--config", help="INI file, section [eval]")
    for sub_p, table in ((run_p, RUN_SETTINGS), (eval_p, EVAL_SETTINGS)):
        for key, help_text, _ in table:
            sub_p.add_argument(f"--{_dashed(key)}", help=help_text)

    sub.add_parser("list", help="enumerate experiments")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    exp = experiment(args.experiment)
    # every experiment reads tol and out besides the settings it declares
    settings = _read_settings(args, args.experiment, RUN_SETTINGS, exp.settings + ("tol", "out"))
    out = settings.pop("out", None)
    if "tol" in settings:
        settings["tolerance"] = settings.pop("tol")
    cfg = ExperimentConfig(experiment=args.experiment, **settings)
    _check_out(out)
    rows = run_experiment(cfg)
    _emit(rows, exp.columns + ("ok", "tolerance"), out)
    passed = sum(1 for r in rows if r.ok)
    status = "PASS" if passed == len(rows) else "FAIL"
    print(f"{cfg.experiment}: {passed}/{len(rows)} rows ok [{status}]", file=sys.stderr)
    return EXIT_PASS if passed == len(rows) else EXIT_FAIL


def _cmd_eval(args: argparse.Namespace) -> int:
    settings = _read_settings(args, "eval", EVAL_SETTINGS)
    for key in ("domain", "kind", "point", "vector"):
        if key not in settings:
            raise ConfigError(f"{key}: required for eval")
    try:
        spec = spec_from_settings(settings["domain"], settings)
    except KeyError as exc:  # a family's builder indexes the settings by name
        raise ConfigError(
            f"{_dashed(exc.args[0])}: required for domain {settings['domain']!r}"
        ) from exc
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc
    # a setting that only other families read
    stray = sorted(
        key for keys in DOMAIN_SETTINGS.values() for key in keys
        if key in settings and key not in DOMAIN_SETTINGS[spec.variant]
    )
    if stray:
        raise ConfigError(f"{_dashed(stray[0])}: not a setting of domain {spec.variant!r}")
    _check_out(settings.get("out"))
    row = eval_metric(
        spec,
        settings["kind"],
        settings["point"],
        settings["vector"],
        k=settings.get("k"),
        tolerance=settings.get("tol", DEFAULT_SOLVER_TOL),
    )
    _emit([row], EVAL_COLUMNS + ("ok", "tolerance"), settings.get("out"))
    print(f"eval {settings['domain']} {settings['kind']}: value = {_fmt(row.data['value'])}",
          file=sys.stderr)
    return EXIT_PASS


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {exp.description}")
    return EXIT_PASS


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_list()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver failure: {exc} (gap {exc.gap})", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
