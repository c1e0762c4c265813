"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Runs every stated claim at its stated tolerance and nothing looser.  Each
test recomputes its targets through the public API (no experiment-internal
shortcuts) so a regression anywhere in the pipeline trips exactly the
criteria it affects.
"""

import itertools
import math

from helpers import cloud_cases
from wumetric.busemann import cloud_indicatrix, degeneracy, support
from wumetric.domains import (
    g2,
    gn,
    indicatrix_at,
    membership,
    polydisc,
    synthetic_rem_one,
    synthetic_rem_two,
    truncated_gn,
)
from wumetric.experiments import (
    GOLDEN_CASES,
    ExperimentConfig,
    golden_eta_hat,
    polydisc_cases,
    run_experiment,
)
from wumetric.geometry import simplex_volume
from wumetric.metrics import MultiIndex, elem_reinhardt_metric
from wumetric.wu import (
    certify_contradiction_g2,
    certify_contradiction_gn,
    gn_ratio_limit,
    min_vol_simplex,
    min_vol_simplex_bruteforce,
    simplex_program,
    wu_metric,
    wu_product,
)

E1_2 = (1.0, 0.0)
E1_3 = (1.0, 0.0, 0.0)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))


def test_criterion_1_polydisc_formula():
    # box certificate point (r_1^2, ..., r_n^2): minimal simplex n r_j^2
    worst_formula = 0.0
    worst_oracle = 0.0
    for r in polydisc_cases():
        n = len(r)
        point = tuple(x * x for x in r)
        params = min_vol_simplex(simplex_program([point]))
        for aj, rj in zip(params.intercepts, r):
            worst_formula = max(worst_formula, _rel(aj, n * rj * rj))
        if n <= 3:
            brute = min_vol_simplex_bruteforce(simplex_program([point]), grid=301)
            gap = abs(simplex_volume(brute) - simplex_volume(params))
            worst_oracle = max(worst_oracle, gap / simplex_volume(params))
    ok = worst_formula <= 1e-8 and worst_oracle <= 1e-3
    _report(
        1,
        "polydisc formula",
        ok,
        f"20 cases, max rel err {worst_formula:.2e} (tol 1e-8), "
        f"oracle {worst_oracle:.2e} (tol 1e-3)",
    )


def test_criterion_2_constrained_closed_form():
    # pinned two-point program versus the fully active stationary point
    # (a1, nu a1 / mu, (n-2) a1 / (a1 - mu)); grid oracle alongside
    n = 3
    worst_closed = 0.0
    worst_oracle = 0.0
    regimes = []
    for x, a1 in itertools.product((0.3, 0.1, 0.05), (2.0, 3.0)):
        mu = (1.0 - x * x) ** 2
        nu = (1.0 / x - 1.0) ** 2
        points = [(mu, 0.0, 1.0), (0.0, nu, 1.0)]
        closed = (a1, nu * a1 / mu, (n - 2) * a1 / (a1 - mu))
        prog = simplex_program(points, fixed={0: a1})
        solved = min_vol_simplex(prog)
        for got, want in zip(solved.intercepts, closed):
            worst_closed = max(worst_closed, _rel(got, want))
        brute = min_vol_simplex_bruteforce(prog, grid=301)
        gap = abs(simplex_volume(brute) - simplex_volume(solved))
        worst_oracle = max(worst_oracle, gap / simplex_volume(solved))
        regimes.append("active" if a1 <= (n - 1) * mu else "slack")
    ok = worst_closed <= 1e-8 and worst_oracle <= 1e-3
    _report(
        2,
        "constrained closed form",
        ok,
        f"max rel err vs stationary point {worst_closed:.2e} (tol 1e-8), "
        f"grid oracle {worst_oracle:.2e} (tol 1e-3); "
        f"pin regimes {regimes} - the stationary point is the optimum only "
        "while a1 <= (n-1) mu, and every (x, a1) combination here pins past "
        "that threshold, so the first constraint goes slack and the solver "
        "(confirmed by the grid oracle) finds the strictly smaller simplex "
        "(a1, (n-1) nu, n-1)",
    )


def test_criterion_3_g2_semicontinuity_gap():
    origin = wu_metric(indicatrix_at(g2(), (0.0, 0.0)).inner)
    exact = origin.w(E1_2) == 1.0 and origin.m == 1
    report = certify_contradiction_g2(0.01, 1.1)
    bound = (1.1 * (1.0 - 0.01)) ** 2
    cert_ok = (
        report.certified
        and report.ratio > 1.0
        and report.ratio >= bound * (1.0 - 1e-10)
    )
    rows = run_experiment(ExperimentConfig(experiment="g2_usc"))
    rows_ok = all(r.ok for r in rows)
    limit = max(r.data["w_e1"] for r in rows if r.data["kind"] == "usc")
    gap_ok = math.sqrt(2.0) > 1.0 and limit > 1.0
    ok = exact and cert_ok and rows_ok and gap_ok
    _report(
        3,
        "g2 semicontinuity gap",
        ok,
        f"W(0;e1)={origin.w(E1_2)} m={origin.m} (exact), "
        f"ratio={report.ratio:.12f} > 1 and >= t^2(1-x)^2={bound:.12f}, "
        f"usc values reach {limit:.6f} with sqrt(2) > 1",
    )


def test_criterion_4_gn_gap():
    res = wu_metric(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner)
    want = 1.0 / math.sqrt(2.0)
    tilde_err = _rel(res.w_tilde(E1_3), want)
    limit = gn_ratio_limit(3, 1.6)
    finite = certify_contradiction_gn(3, 0.01, 2.0)
    ok = (
        tilde_err <= 1e-10
        and limit > 1.0
        and finite.certified
        and finite.ratio > 1.0
    )
    _report(
        4,
        "gn gap",
        ok,
        f"W~(0;e1) err {tilde_err:.2e} (tol 1e-10), "
        f"limit ratio(t=1.6)={limit:.10f} > 1, "
        f"finite-x ratio(x=0.01,t=2)={finite.ratio:.10f} > 1",
    )


def test_criterion_5_non_monotonicity():
    want = math.sqrt(2.0 / 3.0)
    limit = 1.0 / math.sqrt(2.0)
    worst = 0.0
    min_margin = math.inf
    for m in (1.0, 4.0, 16.0, 64.0):
        res = wu_metric(indicatrix_at(truncated_gn(3, m), (0.0, 0.0, 0.0)).inner)
        val = res.w_tilde(E1_3)
        worst = max(worst, _rel(val, want))
        min_margin = min(min_margin, val - limit)
    ok = worst <= 1e-8 and min_margin >= 0.10
    _report(
        5,
        "non-monotonicity",
        ok,
        f"m in (1,4,16,64): max rel err {worst:.2e} (tol 1e-8), "
        f"margin over 1/sqrt(2) is {min_margin:.12f} >= 0.10",
    )


def test_criterion_6_two_ball_family():
    generic, special = synthetic_rem_one()
    w_special = wu_metric(special).w(E1_2)
    w_generic = wu_metric(generic).w(E1_2)
    ok = w_special == 1.0 and w_generic == math.sqrt(2.0) and w_generic > w_special
    _report(
        6,
        "two-ball family",
        ok,
        f"W at special point {w_special} == 1, generic {w_generic!r} == "
        f"sqrt(2) == {math.sqrt(2.0)!r}, violation sqrt(2) > 1 exact",
    )


def test_criterion_7_degenerate_slice_mechanism():
    degenerate, bounded = synthetic_rem_two(3)
    w_deg = wu_metric(degenerate).w_tilde((0.0, 0.0, 1.0))
    w_bnd = wu_metric(bounded).w_tilde((0.0, 0.0, 1.0))
    err_deg = _rel(w_deg, 1.0 / math.sqrt(2.0))
    err_bnd = _rel(w_bnd, 1.0 / math.sqrt(3.0))
    ok = err_deg <= 1e-10 and err_bnd <= 1e-10 and w_deg > w_bnd
    _report(
        7,
        "degenerate slice mechanism",
        ok,
        f"1/sqrt(2) err {err_deg:.2e}, 1/sqrt(3) err {err_bnd:.2e} "
        f"(tol 1e-10), strict inequality {w_deg:.12f} > {w_bnd:.12f}",
    )


def test_criterion_8_golden_table():
    from wumetric.domains import elem_reinhardt, metric_indicatrix

    worst_value = 0.0
    worst_wu = 0.0
    zero_rows_ok = True
    for case in GOLDEN_CASES:
        mi = MultiIndex(case.alpha, case.declared)
        value = elem_reinhardt_metric(
            case.kind, mi, case.big_c, case.a, case.x_vec, case.k
        )
        worst_value = max(
            worst_value, abs(value.value - case.expected) / max(1.0, abs(case.expected))
        )
        eta_hat = golden_eta_hat(case, value.value)
        spec = elem_reinhardt(case.alpha, case.big_c, case.declared)
        ind, u = metric_indicatrix(case.kind, spec, case.a, case.k)
        res = wu_metric(ind, resolution=1024)
        if u is None:
            aligned = case.x_vec
        else:
            aligned = tuple(
                sum(u[i][j] * case.x_vec[j] for j in range(len(case.x_vec)))
                for i in range(len(case.x_vec))
            )
        wu_val = res.w_tilde(aligned)
        if eta_hat == 0.0:
            zero_rows_ok = zero_rows_ok and wu_val == 0.0
        else:
            worst_wu = max(worst_wu, abs(wu_val - eta_hat) / eta_hat)
    ok = worst_value <= 1e-10 and worst_wu <= 0.01 and zero_rows_ok
    _report(
        8,
        "golden table",
        ok,
        f"12 cases: closed-form err {worst_value:.2e} (tol 1e-10), "
        f"wu-vs-eta-hat err {worst_wu:.2e} (tol 1e-2 at resolution 1024), "
        f"collapsed rows exactly zero: {zero_rows_ok}",
    )


def test_criterion_9_property_suites():
    # solver oracle equivalence on 100 deterministic clouds (n <= 3)
    worst_oracle = 0.0
    for _n, points in cloud_cases(100):
        prog = simplex_program(points)
        params = min_vol_simplex(prog)
        brute = min_vol_simplex_bruteforce(prog, grid=301)
        gap = abs(simplex_volume(brute) - simplex_volume(params))
        worst_oracle = max(worst_oracle, gap / simplex_volume(params))
    oracle_ok = worst_oracle <= 1e-3

    # metric homogeneity |lambda| f(X) across both type branches
    homo_ok = True
    for case in (GOLDEN_CASES[0], GOLDEN_CASES[6], GOLDEN_CASES[9]):
        mi = MultiIndex(case.alpha, case.declared)
        base = elem_reinhardt_metric(
            case.kind, mi, case.big_c, case.a, case.x_vec, case.k
        ).value
        for lam in (2.0, 0.5, 1.0 + 2.0j, -3.0j):
            scaled = elem_reinhardt_metric(
                case.kind,
                mi,
                case.big_c,
                case.a,
                tuple(lam * c for c in case.x_vec),
                case.k,
            ).value
            homo_ok = homo_ok and _rel(scaled, abs(lam) * base) <= 1e-12

    # permutation-equivariance of the solver on a 3-axis cloud
    pts = [(0.9, 0.2, 0.1), (0.1, 1.1, 0.3), (0.4, 0.5, 0.8)]
    base_axes = min_vol_simplex(simplex_program(pts)).intercepts
    perm_ok = True
    for perm in itertools.permutations(range(3)):
        shuffled = [tuple(p[j] for j in perm) for p in pts]
        axes = min_vol_simplex(simplex_program(shuffled)).intercepts
        for j, aj in zip(perm, axes):
            perm_ok = perm_ok and _rel(aj, base_axes[j]) <= 1e-10

    # scaling-equivariance: power-of-two exactly, generic to 1e-10
    scale_ok = True
    pow2 = min_vol_simplex(
        simplex_program([tuple(4.0 * c for c in p) for p in pts])
    ).intercepts
    scale_ok = scale_ok and all(s == 4.0 * b for s, b in zip(pow2, base_axes))
    gen = min_vol_simplex(
        simplex_program([tuple(1.7 * c for c in p) for p in pts])
    ).intercepts
    scale_ok = scale_ok and all(
        _rel(s, 1.7 * b) <= 1e-10 for s, b in zip(gen, base_axes)
    )

    # support sublinearity / homogeneity on a hulled cloud
    ind = cloud_indicatrix([(1.0, 0.2), (0.3, 0.9)])
    ys = [(1.0, 0.5), (0.2, 1.3), (0.7, 0.0)]
    sup_ok = True
    for y1, y2 in itertools.combinations(ys, 2):
        s12 = support(ind, tuple(a + b for a, b in zip(y1, y2)))
        sup_ok = sup_ok and s12 <= support(ind, y1) + support(ind, y2) + 1e-12
    for y in ys:
        sup_ok = sup_ok and _rel(
            support(ind, tuple(3.0 * c for c in y)), 3.0 * support(ind, y)
        ) <= 1e-12

    # domain membership is rotation-invariant in each coordinate
    rot_ok = True
    for z1, z2 in [(0.3, 0.5), (0.9, 0.1), (1.2, 0.4)]:
        base = membership(g2(), (z1, z2))
        for t1, t2 in [(0.3, 1.1), (2.0, 4.4)]:
            turned = (z1 * complex(math.cos(t1), math.sin(t1)),
                      z2 * complex(math.cos(t2), math.sin(t2)))
            rot_ok = rot_ok and membership(g2(), turned) == base

    # product consistency on polydiscs
    prod_ok = True
    r, s = (1.0, 2.0), (0.5,)
    left = wu_metric(indicatrix_at(polydisc(*r), (0.0, 0.0)).inner)
    right = wu_metric(indicatrix_at(polydisc(*s), (0.0,)).inner)
    joint = wu_metric(indicatrix_at(polydisc(*r, *s), (0.0, 0.0, 0.0)).inner)
    combined = wu_product(left, right)
    prod_ok = prod_ok and combined.m == joint.m == 3
    for x_vec in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                  (1.0, 1.0, 1.0), (0.3, 1.2, 0.7)]:
        prod_ok = prod_ok and _rel(combined.w(x_vec), joint.w(x_vec)) <= 1e-10
        prod_ok = prod_ok and _rel(
            combined.w_tilde(x_vec), joint.w_tilde(x_vec)
        ) <= 1e-10

    checks = {
        "solver-oracle(100)": oracle_ok,
        "homogeneity": homo_ok,
        "permutation": perm_ok,
        "scaling": scale_ok,
        "support": sup_ok,
        "rotation": rot_ok,
        "product": prod_ok,
    }
    ok = all(checks.values())
    _report(
        9,
        "property suites",
        ok,
        f"oracle max rel gap {worst_oracle:.2e} (tol 1e-3); "
        + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()),
    )


def test_degeneracy_reports_back_acceptance():
    # cross-check: the m values used above come from the degeneracy scan
    generic, special = synthetic_rem_one()
    assert degeneracy(generic).m == degeneracy(special).m == 2
    assert degeneracy(indicatrix_at(g2(), (0.0, 0.0)).inner).m == 1
    assert degeneracy(indicatrix_at(gn(3), (0.0, 0.0, 0.0)).inner).m == 2
