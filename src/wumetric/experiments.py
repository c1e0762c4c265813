"""Experiment drivers packaging the worked examples as deterministic rows.

Each experiment reproduces one closed-form family or counterexample end to
end and emits rows with a per-row pass flag: the run is considered passing
iff every flag holds.  Everything is seedless; the "random" radius draws
use a fixed low-discrepancy sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .busemann import Indicatrix, cloud_indicatrix, kronecker_points
from .domains import (
    DomainSpec,
    elem_reinhardt,
    g2,
    gn,
    indicatrix_at,
    metric_indicatrix,
    polydisc,
    synthetic_rem_one,
    synthetic_rem_two,
    truncated_gn,
)
from .metrics import MultiIndex, elem_reinhardt_metric_info, mu
from .wu import (
    SimplexProgram,
    WuResult,
    certify_contradiction_g2,
    certify_contradiction_gn,
    gn_ratio_limit,
    min_vol_simplex_bruteforce,
    wu_metric,
    wu_product,
)


class ConfigError(ValueError):
    """Invalid experiment configuration (field named in the message)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int = 3
    x: float = 0.01
    x_grid: tuple[float, ...] = (0.1, 0.05, 0.01)
    t: float = 1.6
    m_list: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)
    alpha: tuple[float, ...] | None = None
    big_c: float = 0.0
    resolution: int = 1024
    tolerance: float = 1e-10
    out: str | None = None


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    data: dict[str, object]
    ok: bool
    tolerance: float


@dataclass(frozen=True)
class Experiment:
    runner: Callable[[ExperimentConfig], list["ResultRow"]]
    description: str
    columns: tuple[str, ...]


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: unknown id {cfg.experiment!r}; choose from "
            + ", ".join(sorted(EXPERIMENTS))
        )
    if cfg.resolution < 8:
        raise ConfigError("resolution: must be >= 8")
    if not 0.0 < cfg.tolerance < 1.0:
        raise ConfigError("tol: must lie in (0, 1)")
    if cfg.experiment in ("g2_usc", "gn_usc"):
        if any(not 0.0 < x < 1.0 for x in cfg.x_grid) or not cfg.x_grid:
            raise ConfigError("x-grid: entries must lie in (0, 1)")
    if cfg.experiment == "g2_usc" and cfg.t <= 1.0:
        raise ConfigError("t: must exceed 1")
    if cfg.experiment in ("gn_usc", "monotone", "rem_two"):
        if cfg.n < 3:
            raise ConfigError("n: must be >= 3")
    if cfg.experiment == "gn_usc" and cfg.t <= cfg.n / 2.0:
        raise ConfigError("t: must exceed n/2 for the pinned-intercept bound")
    if cfg.experiment == "monotone":
        if not cfg.m_list or any(m < 1.0 for m in cfg.m_list):
            raise ConfigError("m-list: truncation levels must be >= 1")
    if cfg.alpha is not None and any(a == 0.0 for a in cfg.alpha):
        raise ConfigError("alpha: entries must be nonzero")


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Deterministic rows for one experiment; all ok flags <=> pass."""
    _validate(cfg)
    return EXPERIMENTS[cfg.experiment].runner(cfg)


# ---------------------------------------------------------------------------
# polydisc_formula

_RADIUS_COUNTS = ((2, 7), (3, 7), (4, 6))


def polydisc_cases() -> list[tuple[float, ...]]:
    """20 fixed radius tuples in [0.2, 3], Kronecker low-discrepancy."""
    cases: list[tuple[float, ...]] = []
    for n, count in _RADIUS_COUNTS:
        # the point index runs on across dimensions
        draws = kronecker_points(n, len(cases) + count)[len(cases):]
        cases.extend(tuple(row) for row in (0.2 + 2.8 * draws).tolist())
    return cases


def _run_polydisc_formula(cfg: ExperimentConfig) -> list[ResultRow]:
    tol = 1e-8
    rows = []
    for idx, r in enumerate(polydisc_cases()):
        n = len(r)
        sand = indicatrix_at(polydisc(*r), (0.0,) * n)
        res = wu_metric(sand.inner, tolerance=cfg.tolerance)
        expected = tuple(n * rj * rj for rj in r)
        rel = max(
            abs(a - e) / e for a, e in zip(res.w_tilde.axes, expected)
        )
        oracle_rel: float | None = None
        if n <= 3:
            prog = SimplexProgram(points=(tuple(rj * rj for rj in r),))
            bf = min_vol_simplex_bruteforce(prog, grid=301)
            oracle_rel = max(
                abs(a - b) / e
                for a, b, e in zip(res.w_tilde.axes, bf.intercepts, expected)
            )
        ok = rel <= tol and (oracle_rel is None or oracle_rel <= 1e-3)
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "case": idx,
                    "n": n,
                    "r": r,
                    "a": res.w_tilde.axes,
                    "a_expected": expected,
                    "rel_err": rel,
                    "oracle_rel": oracle_rel,
                    "w_tilde_e1": res.w_tilde((1.0,) + (0.0,) * (n - 1)),
                    "m": res.m,
                },
                ok=ok,
                tolerance=tol,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# g2_usc / gn_usc

def _e1(n: int) -> tuple[float, ...]:
    return (1.0,) + (0.0,) * (n - 1)


def _run_g2_usc(cfg: ExperimentConfig) -> list[ResultRow]:
    rows = []
    origin = wu_metric(indicatrix_at(g2(), (0.0, 0.0)).inner, tolerance=cfg.tolerance)
    w0 = origin.w(_e1(2))
    rows.append(
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "origin",
                "w_tilde_e1": origin.w_tilde(_e1(2)),
                "w_e1": w0,
                "expected": 1.0,
                "m": origin.m,
            },
            ok=(w0 == 1.0 and origin.m == 1),
            tolerance=0.0,
        )
    )
    for x in sorted(cfg.x_grid, reverse=True):
        res = wu_metric(indicatrix_at(g2(), (x, 0.0)).inner, tolerance=cfg.tolerance)
        w_e1 = res.w(_e1(2))
        expected = math.sqrt(2.0 / mu(x))
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "kind": "usc",
                    "x": x,
                    "w_tilde_e1": res.w_tilde(_e1(2)),
                    "w_e1": w_e1,
                    "expected": expected,
                    "m": res.m,
                },
                ok=(abs(w_e1 - expected) <= cfg.tolerance * expected and w_e1 > 1.0),
                tolerance=cfg.tolerance,
            )
        )
    for x in sorted(cfg.x_grid, reverse=True):
        rep = certify_contradiction_g2(x, cfg.t)
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "kind": "certificate",
                    "x": x,
                    "t": cfg.t,
                    "ratio": rep.ratio,
                    "ratio_bound": rep.ratio_bound,
                    "certified": rep.certified,
                },
                ok=abs(rep.ratio - rep.ratio_bound)
                <= cfg.tolerance * max(1.0, rep.ratio_bound),
                tolerance=cfg.tolerance,
            )
        )
    # x -> 0: the certificate ratio tends to t^2 and W((x,0); e1) to sqrt(2)
    limit_w = math.sqrt(2.0)
    rows.append(
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "limit",
                "t": cfg.t,
                "w_e1": limit_w,
                "expected": 1.0,
                "ratio": cfg.t * cfg.t,
                "ratio_bound": cfg.t * cfg.t,
                "certified": cfg.t * cfg.t > 1.0,
            },
            ok=(limit_w > 1.0 and cfg.t * cfg.t > 1.0),
            tolerance=0.0,
        )
    )
    return rows


def _run_gn_usc(cfg: ExperimentConfig) -> list[ResultRow]:
    n, t = cfg.n, cfg.t
    rows = []
    origin = wu_metric(
        indicatrix_at(gn(n), (0.0,) * n).inner, tolerance=cfg.tolerance
    )
    wt0 = origin.w_tilde(_e1(n))
    expected0 = 1.0 / math.sqrt(n - 1)
    rows.append(
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "origin",
                "n": n,
                "w_tilde_e1": wt0,
                "w_e1": origin.w(_e1(n)),
                "expected": expected0,
                "m": origin.m,
            },
            ok=(
                abs(wt0 - expected0) <= cfg.tolerance
                and abs(origin.w(_e1(n)) - 1.0) <= cfg.tolerance
                and origin.m == n - 1
            ),
            tolerance=cfg.tolerance,
        )
    )
    for x in sorted(cfg.x_grid, reverse=True):
        res = wu_metric(
            indicatrix_at(gn(n), (x,) + (0.0,) * (n - 1)).inner,
            tolerance=cfg.tolerance,
        )
        wt = res.w_tilde(_e1(n))
        expected = math.sqrt(2.0 / (n * mu(x)))
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "kind": "usc",
                    "n": n,
                    "x": x,
                    "w_tilde_e1": wt,
                    "w_e1": res.w(_e1(n)),
                    "expected": expected,
                    "m": res.m,
                },
                ok=abs(wt - expected) <= cfg.tolerance * expected,
                tolerance=cfg.tolerance,
            )
        )
    for x in sorted(cfg.x_grid, reverse=True):
        rep = certify_contradiction_gn(n, x, t)
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "kind": "certificate",
                    "n": n,
                    "x": x,
                    "t": t,
                    "ratio": rep.ratio,
                    "ratio_bound": rep.ratio_bound,
                    "regime": "active" if t <= (n - 1) * mu(x) else "slack",
                    "certified": rep.certified,
                },
                ok=rep.ratio <= rep.ratio_bound * (1.0 + 1e-9),
                tolerance=cfg.tolerance,
            )
        )
    limit = gn_ratio_limit(n, t)
    limit_wt = math.sqrt(2.0 / n)
    rows.append(
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "limit",
                "n": n,
                "t": t,
                "w_tilde_e1": limit_wt,
                "w_e1": math.sqrt(2.0),
                "expected": expected0,
                "ratio": limit,
                "ratio_bound": limit,
                "certified": limit > 1.0,
            },
            ok=(limit > 1.0 and limit_wt > expected0),
            tolerance=0.0,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# monotone

def _run_monotone(cfg: ExperimentConfig) -> list[ResultRow]:
    n = cfg.n
    tol = 1e-8
    expected = math.sqrt(2.0 / n)
    limit_value = 1.0 / math.sqrt(n - 1)
    rows = []
    for m in sorted(cfg.m_list):
        sand = indicatrix_at(truncated_gn(n, m), (0.0,) * n)
        res = wu_metric(sand.inner, tolerance=cfg.tolerance)
        wt = res.w_tilde(_e1(n))
        rel = abs(wt - expected) / expected
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "kind": "truncation",
                    "n": n,
                    "m_trunc": m,
                    "a": res.w_tilde.axes,
                    "w_tilde_e1": wt,
                    "expected": expected,
                    "rel_err": rel,
                    "margin": wt - limit_value,
                },
                ok=rel <= tol,
                tolerance=tol,
            )
        )
    margin = expected - limit_value
    rows.append(
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "limit",
                "n": n,
                "w_tilde_e1": limit_value,
                "expected": expected,
                "margin": margin,
            },
            ok=margin >= 0.10 if n == 3 else margin > 0.0,
            tolerance=tol,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# rem_one / rem_two

def _run_rem_one(cfg: ExperimentConfig) -> list[ResultRow]:
    generic, special = synthetic_rem_one()
    res_g = wu_metric(generic, tolerance=cfg.tolerance)
    res_s = wu_metric(special, tolerance=cfg.tolerance)
    w_g = res_g.w(_e1(2))
    w_s = res_s.w(_e1(2))
    rows = [
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "generic",
                "a": res_g.w_tilde.axes,
                "w_e1": w_g,
                "w_tilde_e1": res_g.w_tilde(_e1(2)),
                "expected": math.sqrt(2.0),
            },
            ok=w_g == math.sqrt(2.0),
            tolerance=0.0,
        ),
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "special",
                "a": res_s.w_tilde.axes,
                "w_e1": w_s,
                "w_tilde_e1": res_s.w_tilde(_e1(2)),
                "expected": 1.0,
            },
            ok=w_s == 1.0,
            tolerance=0.0,
        ),
    ]
    rows.append(
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "gap",
                "w_e1": w_g,
                "expected": w_s,
                "violation": w_g > w_s,
            },
            ok=w_g > w_s,
            tolerance=0.0,
        )
    )
    return rows


def _run_rem_two(cfg: ExperimentConfig) -> list[ResultRow]:
    n = cfg.n
    degenerate, bounded = synthetic_rem_two(n)
    res_d = wu_metric(degenerate, tolerance=cfg.tolerance)
    res_b = wu_metric(bounded, tolerance=cfg.tolerance)
    wt_d = res_d.w_tilde(_e1(n))
    wt_b = res_b.w_tilde(_e1(n))
    exp_d = 1.0 / math.sqrt(n - 1)
    exp_b = 1.0 / math.sqrt(n)
    rows = [
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "degenerate",
                "n": n,
                "a": res_d.w_tilde.axes,
                "w_tilde_e1": wt_d,
                "expected": exp_d,
                "m": res_d.m,
            },
            ok=(abs(wt_d - exp_d) <= cfg.tolerance and res_d.m == n - 1),
            tolerance=cfg.tolerance,
        ),
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "bounded",
                "n": n,
                "a": res_b.w_tilde.axes,
                "w_tilde_e1": wt_b,
                "expected": exp_b,
                "m": res_b.m,
            },
            ok=(abs(wt_b - exp_b) <= cfg.tolerance and res_b.m == n),
            tolerance=cfg.tolerance,
        ),
        ResultRow(
            experiment=cfg.experiment,
            data={
                "kind": "gap",
                "n": n,
                "w_tilde_e1": wt_d,
                "expected": wt_b,
            },
            ok=wt_d > wt_b,
            tolerance=0.0,
        ),
    ]
    return rows


# ---------------------------------------------------------------------------
# elem_reinhardt_table

@dataclass(frozen=True)
class GoldenCase:
    case: str
    kind: str
    alpha: tuple[float, ...]
    declared: str | None
    big_c: float
    a: tuple[complex, ...]
    x_vec: tuple[complex, ...]
    k: int | None
    expected: float


_SQ2 = math.sqrt(2.0)

GOLDEN_CASES: tuple[GoldenCase, ...] = (
    GoldenCase(
        "rat_l0_sn_gamma", "gamma", (1.0, 2.0), None, 0.0,
        (0.5, 1.0 / 3.0), (2.0, -1.0), None, 0.11145510835913312,
    ),
    GoldenCase(
        "rat_l0_sn_kappa", "kappa", (2.0, 3.0), None, 0.0,
        (0.6, 0.5), (1.0, 1.0), None, 1.036596328441012,
    ),
    GoldenCase(
        "rat_l0_sn_azukawa_c", "azukawa", (1.0, 1.0), None, math.log(2.0),
        (1.0, 0.5), (1.0, 2.0), None, 1.3333333333333333,
    ),
    GoldenCase(
        "rat_l0_s1_kappa", "kappa", (1.0, 2.0), None, 0.0,
        (0.5, 0.0), (3.0, 7.0), None, 4.949747468305833,
    ),
    GoldenCase(
        "rat_l0_s1_azukawa_n3", "azukawa", (1.0, 1.0, 1.0), None, 0.0,
        (0.5, 0.0, 0.0), (1.0, 2.0, 3.0), None, 1.7320508075688772,
    ),
    GoldenCase(
        "rat_l0_s1_gamma2", "gamma_k", (1.0, 2.0), None, 0.0,
        (0.5, 0.0), (3.0, 7.0), 2, 4.949747468305833,
    ),
    GoldenCase(
        "irr_l0_sn_kappa", "kappa", (1.0, _SQ2), "irrational", 0.0,
        (0.5, 0.25), (1.0, -1.0), None, 0.25869831261410675,
    ),
    GoldenCase(
        "irr_l0_s1_azukawa", "azukawa", (2.0, _SQ2), "irrational", 0.0,
        (0.7, 0.0), (2.0, 5.0), None, 3.01929502696634,
    ),
    GoldenCase(
        "rat_ln_gamma", "gamma", (-1.0, -2.0), None, 0.0,
        (2.0, 1.5), (1.0, 1.0), None, 0.42857142857142855,
    ),
    GoldenCase(
        "rat_ln_kappa", "kappa", (-1.0, -2.0), None, 0.0,
        (2.0, 1.5), (1.0, 1.0), None, 0.6094544526973019,
    ),
    GoldenCase(
        "irr_ln_kappa", "kappa", (-1.0, -_SQ2), "irrational", 0.0,
        (2.0, 2.0), (1.0, 1.0), None, 0.36067376022224085,
    ),
    GoldenCase(
        "irr_ln_kappa_c", "kappa", (-_SQ2, -1.0), "irrational", 0.5,
        (-1.2, 1.1j), (0.3, -0.7j), None, 0.5801529277207869,
    ),
)


def golden_eta_hat(case: GoldenCase, value: float) -> float:
    """eta with >= n-1 nonzero base coordinates, else 0."""
    n = len(case.alpha)
    s = sum(1 for c in case.a if c != 0)
    return value if s >= n - 1 else 0.0


def _wu_against_eta(
    case: GoldenCase, eta_hat: float, resolution: int, tolerance: float
) -> tuple[float, float]:
    """(wu value on the sampled eta-ball, comparison error vs eta_hat)."""
    spec = elem_reinhardt(case.alpha, case.big_c, case.declared)
    ind, u = metric_indicatrix(case.kind, spec, case.a, case.k)
    res = wu_metric(ind, resolution=resolution, tolerance=tolerance)
    if u is None:
        aligned = case.x_vec
    else:
        aligned = tuple(
            sum(u[i][j] * case.x_vec[j] for j in range(len(case.x_vec)))
            for i in range(len(case.x_vec))
        )
    wu_val = res.w_tilde(aligned)
    if eta_hat == 0.0:
        return wu_val, abs(wu_val)
    return wu_val, abs(wu_val - eta_hat) / eta_hat


def _run_elem_table(cfg: ExperimentConfig) -> list[ResultRow]:
    tol = 1e-10
    rows = []
    for case in GOLDEN_CASES:
        mi = MultiIndex(case.alpha, case.declared)
        value, info = elem_reinhardt_metric_info(
            case.kind, mi, case.big_c, case.a, case.x_vec, case.k
        )
        eta_hat = golden_eta_hat(case, value.value)
        wu_val, wu_err = _wu_against_eta(case, eta_hat, cfg.resolution, cfg.tolerance)
        ok = abs(value.value - case.expected) <= tol * max(1.0, abs(case.expected))
        ok = ok and (wu_err <= tol if eta_hat > 0.0 else wu_val == 0.0)
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "case": case.case,
                    "kind": case.kind,
                    "alpha": case.alpha,
                    "type": case.declared,
                    "big_c": case.big_c,
                    "k": case.k,
                    "a": case.a,
                    "x_vec": case.x_vec,
                    "value": value.value,
                    "expected": case.expected,
                    "eta_hat": eta_hat,
                    "wu_tilde": wu_val,
                    "wu_err": wu_err,
                    "branch": info.case,
                    "s": info.s,
                    "r": info.r,
                },
                ok=ok,
                tolerance=tol,
            )
        )
    if cfg.alpha is not None:
        rows.extend(_custom_alpha_rows(cfg))
    return rows


def _custom_alpha_rows(cfg: ExperimentConfig) -> list[ResultRow]:
    """Informational rows for a user-supplied exponent vector."""
    base = tuple(0.6 if a > 0 else 1.0 / 0.6 for a in cfg.alpha)
    x_vec = (1.0,) * len(cfg.alpha)
    rows = []
    for kind in ("gamma", "azukawa", "kappa"):
        value, info = elem_reinhardt_metric_info(
            kind, cfg.alpha, cfg.big_c, base, x_vec
        )
        rows.append(
            ResultRow(
                experiment=cfg.experiment,
                data={
                    "case": "custom",
                    "kind": kind,
                    "alpha": cfg.alpha,
                    "big_c": cfg.big_c,
                    "a": base,
                    "x_vec": x_vec,
                    "value": value.value,
                    "branch": info.case,
                    "s": info.s,
                    "r": info.r,
                },
                ok=True,
                tolerance=cfg.tolerance,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# product_check

def _axes_rel(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    worst = 0.0
    for x, y in zip(a, b):
        if math.isinf(x) and math.isinf(y):
            continue
        if math.isinf(x) or math.isinf(y):
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    return worst


def _product_case(
    name: str,
    left: WuResult,
    right: WuResult,
    direct: Indicatrix,
    tolerance: float,
) -> ResultRow:
    combined = wu_product(left, right)
    res = wu_metric(direct, tolerance=tolerance)
    rel = max(
        _axes_rel(combined.w.axes, res.w.axes),
        _axes_rel(combined.w_tilde.axes, res.w_tilde.axes),
    )
    return ResultRow(
        experiment="product_check",
        data={
            "case": name,
            "w_axes": combined.w.axes,
            "w_axes_direct": res.w.axes,
            "w_tilde_axes": combined.w_tilde.axes,
            "w_tilde_axes_direct": res.w_tilde.axes,
            "m": combined.m,
            "m_direct": res.m,
            "max_rel": rel,
        },
        ok=(rel <= 1e-10 and combined.m == res.m),
        tolerance=1e-10,
    )


def _wu_of(spec: DomainSpec, at: tuple[float, ...], tolerance: float) -> WuResult:
    return wu_metric(indicatrix_at(spec, at).inner, tolerance=tolerance)


def _run_product_check(cfg: ExperimentConfig) -> list[ResultRow]:
    tol = cfg.tolerance
    rows = [
        _product_case(
            "disc_x_bidisc",
            _wu_of(polydisc(1.0), (0.0,), tol),
            _wu_of(polydisc(2.0, 0.5), (0.0, 0.0), tol),
            indicatrix_at(polydisc(1.0, 2.0, 0.5), (0.0,) * 3).inner,
            tol,
        ),
        _product_case(
            "bidisc_x_disc",
            _wu_of(polydisc(1.5, 0.7), (0.0, 0.0), tol),
            _wu_of(polydisc(0.9), (0.0,), tol),
            indicatrix_at(polydisc(1.5, 0.7, 0.9), (0.0,) * 3).inner,
            tol,
        ),
        _product_case(
            "degenerate_left",
            _wu_of(g2(), (0.0, 0.0), tol),
            _wu_of(polydisc(1.5), (0.0,), tol),
            cloud_indicatrix(
                [(1.0, 0.0, 2.25)], bounded_axes=(True, False, True)
            ),
            tol,
        ),
        _product_case(
            "plane_left",
            wu_metric(
                cloud_indicatrix([(1.0,)], bounded_axes=(False,)), tolerance=tol
            ),
            _wu_of(polydisc(1.0), (0.0,), tol),
            cloud_indicatrix([(1.0, 1.0)], bounded_axes=(False, True)),
            tol,
        ),
    ]
    return rows


EXPERIMENTS: dict[str, Experiment] = {
    "polydisc_formula": Experiment(
        _run_polydisc_formula,
        "Minimal enclosing simplex of polydisc certificates: intercepts "
        "n*r_j^2 across 20 fixed radius draws, grid oracle for n <= 3.",
        ("case", "n", "r", "a", "a_expected", "rel_err", "oracle_rel",
         "w_tilde_e1", "m"),
    ),
    "g2_usc": Experiment(
        _run_g2_usc,
        "Upper-semicontinuity failure on {|z1|(1+|z2|) < 1}: normalized "
        "metric 1 at the origin vs limit sqrt(2) along (x, 0), with "
        "pinned-intercept volume certificates.",
        ("kind", "x", "t", "w_tilde_e1", "w_e1", "expected", "m", "ratio",
         "ratio_bound", "certified"),
    ),
    "gn_usc": Experiment(
        _run_gn_usc,
        "n-variable semicontinuity gap: origin values (1/sqrt(n-1), 1) vs "
        "sqrt(2/n)-type limits along (x, 0, ..., 0), plus pinned-intercept "
        "certificates and their x -> 0 limit ratio.",
        ("kind", "n", "x", "t", "w_tilde_e1", "w_e1", "expected", "m",
         "ratio", "ratio_bound", "regime", "certified"),
    ),
    "monotone": Experiment(
        _run_monotone,
        "Exhaustion without convergence: every truncation keeps "
        "W-tilde(0; e1) = sqrt(2/n) while the limit domain gives "
        "1/sqrt(n-1).",
        ("kind", "n", "m_trunc", "a", "w_tilde_e1", "expected", "rel_err",
         "margin"),
    ),
    "rem_one": Experiment(
        _run_rem_one,
        "Two-ball family whose normalized metric jumps from sqrt(2) at "
        "generic points to 1 at a marked point.",
        ("kind", "a", "w_e1", "w_tilde_e1", "expected", "violation"),
    ),
    "rem_two": Experiment(
        _run_rem_two,
        "Degenerate-slice mechanism: an unbounded axis changes the "
        "normalization count, moving W-tilde(0; e1) from 1/sqrt(n) to "
        "1/sqrt(n-1).",
        ("kind", "n", "a", "w_tilde_e1", "expected", "m"),
    ),
    "elem_reinhardt_table": Experiment(
        _run_elem_table,
        "Golden table of gamma^(k), Azukawa and Kobayashi values on "
        "{|z^alpha| < e^C}, each cross-checked against the Wu pipeline on "
        "the sampled indicatrix.",
        ("case", "kind", "alpha", "type", "big_c", "k", "a", "x_vec",
         "value", "expected", "eta_hat", "wu_tilde", "wu_err", "branch",
         "s", "r"),
    ),
    "product_check": Experiment(
        _run_product_check,
        "Product rule: squared normalized metrics add across factors; "
        "checked against direct solves on product certificates.",
        ("case", "w_axes", "w_axes_direct", "w_tilde_axes",
         "w_tilde_axes_direct", "m", "m_direct", "max_rel"),
    ),
}
