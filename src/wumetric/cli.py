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
import math
import os
import sys
from typing import IO, Sequence

from .domains import DomainSpec, indicatrix_at, spec_from_config
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    run_experiment,
)
from .metrics import MultiIndex, elem_reinhardt_metric_info
from .wu import SolverError, wu_metric

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
    tolerance: float = 1e-10,
    resolution: int | None = None,
) -> ResultRow:
    """Single metric evaluation with branch diagnostics.

    kind 'wu' runs the indicatrix pipeline of the domain at a and reports
    the W-tilde/W values in direction X; the other kinds evaluate the
    displayed closed forms (elem_reinhardt domains only).
    """
    at = tuple(complex(c) for c in a)
    xv = tuple(complex(c) for c in X)
    data: dict[str, object] = {
        "domain": spec.variant, "kind": kind, "k": k, "a": at, "x_vec": xv,
        "value": None, "w_tilde": None, "w": None, "m": None,
        "branch": None, "l": None, "s": None, "r": None, "scale": None,
    }
    if kind == "wu":
        sand = indicatrix_at(spec, at)
        res = wu_metric(sand.inner, tolerance=tolerance, resolution=resolution)
        aligned = sand.align(xv)
        data.update(
            value=res.w_tilde(aligned),
            w_tilde=res.w_tilde(aligned),
            w=res.w(aligned),
            m=res.m,
        )
    elif kind in ("gamma", "gamma_k", "azukawa", "kappa"):
        if spec.variant != "elem_reinhardt":
            raise ConfigError(
                f"kind: {kind!r} needs an elem_reinhardt domain, got {spec.variant!r}"
            )
        mi = MultiIndex(spec.alpha, spec.declared_type)
        value, info = elem_reinhardt_metric_info(kind, mi, spec.big_c, at, xv, k)
        data.update(
            value=value.value,
            branch=info.case,
            l=info.l,
            s=info.s,
            r=info.r,
            scale=info.scale,
        )
    else:
        raise ConfigError(
            f"kind: unknown {kind!r}; expected gamma, gamma_k, azukawa, kappa or wu"
        )
    return ResultRow(experiment="eval", data=data, ok=True, tolerance=tolerance)


# ---------------------------------------------------------------------------
# configuration plumbing

def _config_section(path: str | None, name: str) -> dict[str, str]:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config: file {path!r} not found")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config: {exc}") from exc
    if not parser.has_section(name):
        return {}
    return dict(parser.items(name))


def _floats(text: str, field: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"{field}: cannot parse {text!r} as floats") from exc
    if not values:
        raise ConfigError(f"{field}: empty list")
    return values


def _complexes(text: str, field: str) -> tuple[complex, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(complex(part))
        except ValueError as exc:
            raise ConfigError(
                f"{field}: cannot parse {part!r} as a complex number"
            ) from exc
    if not out:
        raise ConfigError(f"{field}: empty list")
    return tuple(out)


def _scalar(text: str, field: str, cast) -> object:
    try:
        return cast(text)
    except ValueError as exc:
        raise ConfigError(f"{field}: cannot parse {text!r}") from exc


def _merge_run_config(
    experiment: str, section: dict[str, str], args: argparse.Namespace
) -> ExperimentConfig:
    kwargs: dict[str, object] = {"experiment": experiment}

    def pick(field: str, key: str, flag_value, parse):
        if flag_value is not None:
            kwargs[field] = flag_value
            return
        for spelling in (key, key.replace("_", "-")):
            if spelling in section:
                kwargs[field] = parse(section[spelling], key)
                return
        # otherwise the dataclass default stands

    pick("n", "n", args.n, lambda s, f: _scalar(s, f, int))
    pick("x", "x", args.x, lambda s, f: _scalar(s, f, float))
    pick("x_grid", "x_grid", _floats(args.x_grid, "x-grid") if args.x_grid else None, _floats)
    pick("t", "t", args.t, lambda s, f: _scalar(s, f, float))
    pick("m_list", "m_list", _floats(args.m_list, "m-list") if args.m_list else None, _floats)
    pick("alpha", "alpha", _floats(args.alpha, "alpha") if args.alpha else None, _floats)
    pick("big_c", "big_c", args.big_c, lambda s, f: _scalar(s, f, float))
    pick("resolution", "resolution", args.resolution, lambda s, f: _scalar(s, f, int))
    pick("tolerance", "tol", args.tolerance, lambda s, f: _scalar(s, f, float))
    pick("out", "out", args.out, lambda s, f: s)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# subcommands

def _columns_help() -> str:
    lines = ["columns per experiment (plus ok, tolerance):"]
    for name, exp in EXPERIMENTS.items():
        lines.append(f"  {name}: {','.join(exp.columns)}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
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
        epilog=_columns_help(),
    )
    run_p.add_argument("experiment", help="experiment id; see `wumetric list`")
    run_p.add_argument("--config", help="INI file, section [<experiment>]")
    run_p.add_argument("--n", type=int, help="dimension parameter")
    run_p.add_argument("--x", type=float, help="base-point coordinate in (0, 1)")
    run_p.add_argument("--x-grid", dest="x_grid", help="comma-separated x values")
    run_p.add_argument("--t", type=float, help="pinned first intercept")
    run_p.add_argument("--m-list", dest="m_list", help="comma-separated truncation levels")
    run_p.add_argument("--alpha", help="comma-separated exponent vector")
    run_p.add_argument("--big-c", dest="big_c", type=float, help="domain constant C")
    run_p.add_argument("--resolution", type=int, help="boundary sampling resolution")
    run_p.add_argument("--tol", dest="tolerance", type=float, help="solver/comparison tolerance")
    run_p.add_argument("--out", help="CSV output path (default: stdout)")

    eval_p = sub.add_parser("eval", help="evaluate one metric at one point")
    eval_p.add_argument("--config", help="INI file, section [eval]")
    eval_p.add_argument("--domain", help="elem_reinhardt|polydisc|g2|gn|truncated_gn")
    eval_p.add_argument("--kind", help="gamma|gamma_k|azukawa|kappa|wu")
    eval_p.add_argument("--point", help="comma-separated complex coordinates")
    eval_p.add_argument("--vector", help="comma-separated complex direction")
    eval_p.add_argument("--alpha", help="exponent vector (elem_reinhardt)")
    eval_p.add_argument("--big-c", dest="big_c", type=float, help="domain constant C")
    eval_p.add_argument("--type", dest="declared", choices=("rational", "irrational"),
                        help="override exponent type detection")
    eval_p.add_argument("--r", help="polydisc radii, comma-separated")
    eval_p.add_argument("--n", type=int, help="dimension (gn, truncated_gn)")
    eval_p.add_argument("--m", type=float, help="truncation level (truncated_gn)")
    eval_p.add_argument("--k", type=int, help="order for kind gamma_k")
    eval_p.add_argument("--resolution", type=int)
    eval_p.add_argument("--tol", dest="tolerance", type=float)
    eval_p.add_argument("--out", help="CSV output path (default: stdout)")

    sub.add_parser("list", help="enumerate experiments")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: unknown id {args.experiment!r}; choose from "
            + ", ".join(sorted(EXPERIMENTS))
        )
    section = _config_section(args.config, args.experiment)
    cfg = _merge_run_config(args.experiment, section, args)
    rows = run_experiment(cfg)
    columns = EXPERIMENTS[cfg.experiment].columns + ("ok", "tolerance")
    _emit(rows, columns, cfg.out)
    passed = sum(1 for r in rows if r.ok)
    status = "PASS" if passed == len(rows) else "FAIL"
    print(f"{cfg.experiment}: {passed}/{len(rows)} rows ok [{status}]", file=sys.stderr)
    return EXIT_PASS if passed == len(rows) else EXIT_FAIL


def _cmd_eval(args: argparse.Namespace) -> int:
    section = _config_section(args.config, "eval")

    def setting(key: str, flag):
        if flag is not None:
            return flag
        for spelling in (key, key.replace("_", "-")):
            if spelling in section:
                return section[spelling]
        return None

    domain = setting("domain", args.domain)
    kind = setting("kind", args.kind)
    point = setting("point", args.point)
    vector = setting("vector", args.vector)
    for name, value in (("domain", domain), ("kind", kind),
                        ("point", point), ("vector", vector)):
        if value is None:
            raise ConfigError(f"{name}: required for eval")

    spec_cfg = {"domain": domain}
    for key, flag in (("alpha", args.alpha), ("big_c", args.big_c), ("type", args.declared),
                      ("r", args.r), ("n", args.n), ("m", args.m)):
        value = setting(key, flag)
        if value is not None:
            spec_cfg[key] = str(value)
    try:
        spec = spec_from_config(spec_cfg)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"domain: {exc}") from exc

    k = setting("k", args.k)
    tol = setting("tol", args.tolerance)
    resolution = setting("resolution", args.resolution)
    row = eval_metric(
        spec,
        str(kind),
        _complexes(str(point), "point"),
        _complexes(str(vector), "vector"),
        k=int(k) if k is not None else None,
        tolerance=float(tol) if tol is not None else 1e-10,
        resolution=int(resolution) if resolution is not None else None,
    )
    _emit([row], EVAL_COLUMNS + ("ok", "tolerance"), setting("out", args.out))
    print(f"eval {domain} {kind}: value = {_fmt(row.data['value'])}", file=sys.stderr)
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
