"""Acceptance gate: one test per shipped criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` to get one line per criterion.
Every numeric target here is frozen; tolerances are stated inline.  The
normalized-ratio threshold (09b) checks the exact stock-law ratio at s=1000,
T=100 under summed coordination, and that its (r_min + 1)/T = 0.02
asymptote is approached from above but never reached.
"""

import contextlib
import io
import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

from sybilcost import arguments, cli, costs, law, oracle, resources

TOL = 0.05 + 1e-9  # table tolerance, plus headroom for a one-ulp boundary case

GRID_S = (1, 2, 3, 4)
GRID_T = (1, 2, 3, 4)
GRID_R = (0.5, 1.0, 2.0)

# Frozen crossover references, keyed by (T, r_min).
CROSSOVER_REFERENCE = {
    (10, 0.5): 2.9, (10, 1.0): 1.2, (10, 2.0): 0.6,
    (25, 0.5): 2.3, (25, 1.0): 1.1, (25, 2.0): 0.5,
    (50, 0.5): 2.1, (50, 1.0): 1.0, (50, 2.0): 0.5,
    (100, 0.5): 2.1, (100, 1.0): 1.0, (100, 2.0): 0.5,
    (200, 0.5): 2.0, (200, 1.0): 1.0, (200, 2.0): 0.5,
}


def _criterion(number: str, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@lru_cache(maxsize=None)
def _min_cost(kind: str, s: int, T: int, r_min: float, extra: float | None = None) -> float:
    if kind == "par":
        spec = replace(resources.preset("pos-stake"), r_min=r_min)
    elif kind == "bnd":
        spec = replace(resources.preset("device-bound"), r_min=r_min, tau=r_min)
    elif kind == "alpha":
        spec = resources.ResourceSpec(
            name="partial", divisible=True, additive_influence=True,
            temporally_reusable=True, identity_transferable=None,
            alpha=extra, r_min=r_min,
        )
    else:
        spec = resources.ResourceSpec(
            name="bounded", divisible=True, additive_influence=True,
            temporally_reusable=None, identity_transferable=True,
            k=int(extra), r_min=r_min,
        )
    return oracle.min_cost(oracle.OracleScenario(s=s, T=T, spec=spec)).min_cost


def test_criterion_01_crossover_table(capsys):
    start = time.perf_counter()
    code = cli.dispatch(["crossover", "--table"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T,r_min,s_star"
    misses = []
    for line in lines[1:]:
        T_text, r_text, s_text = line.split(",")
        want = CROSSOVER_REFERENCE[(int(T_text), float(r_text))]
        if abs(float(s_text) - want) > TOL:
            misses.append((T_text, r_text, s_text, want))
    ok = not misses and len(lines) == 16 and elapsed < 1.0
    _criterion("01", "crossover table", ok,
               f"15/15 values within ±0.05 in {elapsed:.3f}s" if ok
               else f"misses={misses} rows={len(lines) - 1} elapsed={elapsed:.3f}s")


def test_criterion_02_eth_calibration():
    from sybilcost.calibration import eth_scenario, run_calibration

    start = time.perf_counter()
    scenario = eth_scenario()
    series = run_calibration(scenario)
    elapsed = time.perf_counter() - start

    lido_par = next(one for one in series if one.tier == "lido" and one.law == "par")
    lido_bnd = next(one for one in series if one.tier == "lido" and one.law == "bnd")
    stock_constant = all(report.total == 9.6e6 for report in lido_par.reports)
    final = lido_bnd.reports[scenario.T_range.index(1000)].total
    ratio = final / scenario.supply_reference
    ok = stock_constant and final == 9.6e9 and 75 <= ratio <= 85 and elapsed < 1.0
    _criterion("02", "eth calibration", ok,
               f"stock 9.6e6 constant; renewal(T=1000)={final:.3e}; "
               f"ratio-to-supply={ratio:.1f} in [75, 85]; {elapsed:.3f}s")


def test_criterion_03_btc_calibration():
    from sybilcost.calibration import btc_tiers, run_calibration

    start = time.perf_counter()
    scenario = btc_tiers()
    sizes = dict(scenario.s_tiers)
    tiers_ok = {sizes[name] for name in ("pool1", "pool2", "pool3", "pool4")} == {1650, 1550, 1200, 1150}
    series = run_calibration(scenario, law="par", coordination=law.LINEAR_COORDINATION)
    decreasing = all(
        all(a > b for a, b in zip(ratios, ratios[1:]))
        for ratios in ([report.normalized for report in one.reports] for one in series)
    )
    elapsed = time.perf_counter() - start
    ok = tiers_ok and decreasing and elapsed < 1.0
    _criterion("03", "btc calibration", ok,
               f"tiers {sorted(sizes.values(), reverse=True)}; normalized strictly "
               f"decreasing in T for all {len(series)} tiers; {elapsed:.3f}s")


def test_criterion_04_non_amplification(capsys):
    start = time.perf_counter()
    code = cli.dispatch(["fig3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    bad = []
    for line in lines[1:]:
        m_text, *shares = line.split(",")
        m = int(m_text)
        expected = m / (m + 200)
        if len(set(shares)) != 1 or float(shares[0]) != expected:
            bad.append(line)
    ok = not bad and len(lines) == 192 and elapsed < 1.0
    _criterion("04", "non-amplification dataset", ok,
               f"{len(lines) - 1} rows, three bitwise-identical share columns equal "
               f"to m/(m+200); {elapsed:.3f}s" if ok else f"bad rows: {bad[:3]}")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    misses = []
    checked = 0
    for s, T, r_min in itertools.product(GRID_S, GRID_T, GRID_R):
        par = _min_cost("par", s, T, r_min)
        bnd = _min_cost("bnd", s, T, r_min)
        checked += 2
        if par != s * r_min:
            misses.append(("par", s, T, r_min, par))
        if bnd != (s * T) * r_min:
            misses.append(("bnd", s, T, r_min, bnd))
    elapsed = time.perf_counter() - start
    ok = not misses and elapsed < 60.0
    _criterion("05", "oracle equivalence", ok,
               f"{checked} exact equalities over {len(GRID_S) * len(GRID_T) * len(GRID_R)} "
               f"grid points x 2 laws in {elapsed:.2f}s" if ok else f"misses={misses[:4]}")


def test_criterion_06_marginal_separation():
    misses = []
    checked = 0
    for s, T, r_min in itertools.product(GRID_S, GRID_T, GRID_R):
        below_par = _min_cost("par", s - 1, T, r_min) if s > 1 else 0.0
        below_bnd = _min_cost("bnd", s - 1, T, r_min) if s > 1 else 0.0
        checked += 2
        if _min_cost("par", s, T, r_min) - below_par != r_min:
            misses.append(("par", s, T, r_min))
        if _min_cost("bnd", s, T, r_min) - below_bnd != r_min * T:
            misses.append(("bnd", s, T, r_min))
    _criterion("06", "marginal separation", not misses,
               f"{checked} marginals: flat r_min vs r_min*T on every grid instance"
               if not misses else f"misses={misses[:4]}")


def test_criterion_07_intermediate_regimes():
    # The grid is dyadic, so every floor and minimum is exact: no tolerance.
    misses = []
    checked = 0
    for s, T, r_min in itertools.product(GRID_S, GRID_T, GRID_R):
        for alpha in (0.0, 0.5, 1.0):
            found = _min_cost("alpha", s, T, r_min, alpha)
            floor = (1.0 - alpha) * ((s * T) * r_min)
            checked += 1
            if found < floor:
                misses.append(("alpha-floor", alpha, s, T, r_min))
        for k in sorted({1, 2, T}):
            found = _min_cost("k", s, T, r_min, k)
            checked += 1
            if found < (s * T) * r_min / k:
                misses.append(("k-floor", k, s, T, r_min))
        # Endpoints collapse to the extremal laws exactly.
        checked += 4
        if _min_cost("alpha", s, T, r_min, 1.0) != _min_cost("par", s, T, r_min):
            misses.append(("alpha=1 endpoint", s, T, r_min))
        if _min_cost("alpha", s, T, r_min, 0.0) != _min_cost("bnd", s, T, r_min):
            misses.append(("alpha=0 endpoint", s, T, r_min))
        if _min_cost("k", s, T, r_min, 1) != _min_cost("bnd", s, T, r_min):
            misses.append(("k=1 endpoint", s, T, r_min))
        if _min_cost("k", s, T, r_min, T) != _min_cost("par", s, T, r_min):
            misses.append(("k=T endpoint", s, T, r_min))
    _criterion("07", "intermediate regimes", not misses,
               f"{checked} bound and endpoint checks across alpha in {{0, 0.5, 1}} and "
               f"k in {{1, 2, T}}" if not misses else f"misses={misses[:4]}")


def test_criterion_08_hybrid_floor():
    points = set()
    for preset in ("fig1", "fig2"):
        s_values, T_values, r_min_values, _coordination = arguments._SWEEP_PRESETS[preset]
        points.update(itertools.product(s_values, T_values, r_min_values))
    # Stretch to the documented grid extremes on a logarithmic sample.
    points.update(
        itertools.product(
            (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000),
            (1, 10, 100, 1_000, 10_000),
            GRID_R,
        )
    )
    misses = []
    for s, T, r_min in sorted(points):
        report = costs.governance_hybrid(s, T, r_min, r_min, law.LINEAR_COORDINATION)
        if report.total < (s * T) * r_min:
            misses.append((s, T, r_min, report.total))
    _criterion("08", "hybrid floor", not misses,
               f"total >= r_min*s*T at all {len(points)} grid points with a nonzero "
               f"throughput component" if not misses else f"misses={misses[:4]}")


def _sweep_rows(preset: str) -> list[dict[str, float]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.dispatch(["sweep", "--preset", preset, "--format", "json"]) == cli.EXIT_OK
    return json.loads(out.getvalue())["rows"]


def test_criterion_09_normalized_regimes():
    rows_s = _sweep_rows("fig1")  # s varies, T=100 fixed
    decreasing_s = all(
        a["normalized_par"] > b["normalized_par"] for a, b in zip(rows_s, rows_s[1:])
    )
    rows_t = _sweep_rows("fig2")  # T varies per threshold, s=10 fixed
    by_r: dict[float, list[dict[str, float]]] = {}
    for row in rows_t:
        by_r.setdefault(row["r_min"], []).append(row)
    decreasing_t = all(
        all(a["normalized_par"] > b["normalized_par"] for a, b in zip(rows, rows[1:]))
        for rows in by_r.values()
    )
    renewal_exact = all(
        row["normalized_bnd"] == row["r_min"] for row in rows_s + rows_t
    )
    ok = decreasing_s and decreasing_t and renewal_exact
    _criterion("09a", "normalized-ratio regimes", ok,
               f"stock ratio strictly decreasing over {len(rows_s)} s-points and "
               f"{len(rows_t)} T-points; renewal ratio equals r_min at every point")


def _stock_ratio(s: int, T: int, r_min: float) -> tuple[law.CostReport, Fraction]:
    report = costs.cost_parallelizable(s, T, r_min, law.LINEAR_COORDINATION)
    return report, Fraction(report.total) / (s * T)


def test_criterion_09_normalized_threshold():
    # Stock law under summed coordination: total = s * r_min + h(s, T) with
    # h = s + T, so C/sT = r_min/T + 1/T + 1/s.  At s=1000, T=100, r_min=1
    # that is exactly 21/1000.  Criterion 01 pins h = s + T independently:
    # its crossover s* = T / (T*r_min - r_min - 1) is where s*r_min + s + T
    # meets s*T*r_min.  The ratio's infimum over s is (r_min + 1)/T = 0.02,
    # never reached, so 0.02 is checked as the asymptote with gap exactly 1/s.
    s, T, r_min = 1000, 100, 1.0
    asymptote = Fraction(2, 100)
    report, ratio = _stock_ratio(s, T, r_min)
    exact = ratio == asymptote + Fraction(1, 1000) and report.normalized == report.total / (s * T)
    decomposed = (
        report.stock == s * r_min and report.coordination == s + T and report.flow == 0
    )
    # fig1: s = 1..1000 at T=100, r_min=1
    s_sweep, (T_sweep,), (r_sweep,), _coordination = arguments._SWEEP_PRESETS["fig1"]
    gap_misses = [
        point for point in s_sweep
        if _stock_ratio(point, T_sweep, r_sweep)[1] - asymptote != Fraction(1, point)
    ]
    points = len(s_sweep)
    ok = exact and decomposed and not gap_misses
    _criterion("09b", "normalized-ratio threshold", ok,
               f"ratio={ratio} at s=1000, T=100 (stock={report.stock}, "
               f"coordination={report.coordination}, flow={report.flow}); "
               f"asymptote (r_min+1)/T = {asymptote}, gap={ratio - asymptote}; "
               f"gap == 1/s at {points - len(gap_misses)}/{points} fig1 points")


def test_criterion_10_classification_soundness():
    start = time.perf_counter()
    combos = 0
    for divisible, additive, reusable, transferable, bounded in itertools.product(
        (True, False), repeat=5
    ):
        if bounded and (reusable or transferable):
            continue  # construction is rejected; exclusion holds vacuously
        spec = resources.ResourceSpec(
            name="combo",
            divisible=divisible,
            additive_influence=additive,
            temporally_reusable=reusable,
            identity_transferable=transferable,
            throughput_bounded=bounded,
            tau=2.0 if bounded else None,
            r_min=1.0,
        )
        assert not (resources.is_parallelizable(spec) and spec.throughput_bounded)
        combos += 1

    expected = {
        "pow-hardware": "Parallelizable",
        "pow-energy": "Other",
        "pos-stake": "Parallelizable",
        "social-graph": "Other",
        "device-bound": "ThroughputBounded",
        "human-participation": "ThroughputBounded",
        "rate-limited": "ThroughputBounded",
    }
    got = {
        spec.name: resources.classify(spec).resource_class.value
        for spec in resources.TAXONOMY
    }
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1.0
    _criterion("10", "classification soundness", ok,
               f"mutual exclusion over {combos} flag combinations; all 7 presets "
               f"classified as documented; {elapsed:.3f}s" if ok else f"got={got}")
