"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from riesz.cli import main as cli_main
from riesz.grid import GridSpec, random_band_limited, snap_to_lattice
from riesz.multiplier import apply, dense_oracle
from riesz.neumann import (
    apply_forward,
    decay_slope,
    forward_decomposition,
    make_plan,
    reverse_decomposition,
    seminorm_table,
)
from riesz.norms import (
    WeightSpec,
    ap_constant_estimate,
    besov_norm,
    build_lp_family,
    default_cube_family,
    lp_norm,
    triebel_norm,
)
from riesz.probes import (
    ProbeSpec,
    decay_curve,
    halving_factors,
    lambda_to_xi0,
    probe_field,
    probe_grid,
    probe_lower_bound,
    probe_ratio,
    resolvent_norm_grid_sup,
    resolvent_norm_oracle,
    weighted_probe_report,
)
from riesz.symbols import bochner_symbol, cutoff_pair, dist_to_unit_interval, resolvent_symbol


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    return ok


@pytest.fixture(scope="module")
def sweep_grid():
    # sized for scale sweeps up to N = 128 at bump radius 0.5
    return probe_grid(128, 0.5)


def test_criterion_1_p2_resolvent_oracle():
    grid = GridSpec(1, 1024, 1000.0)
    worst_rel, worst_time = 0.0, 0.0
    for z in (2.0, -1.0, 1.0 + 1.0j, 0.5 + 0.25j):
        start = time.perf_counter()
        estimate = resolvent_norm_grid_sup(z, 1.0, grid)
        elapsed = time.perf_counter() - start
        exact = 1.0 / dist_to_unit_interval(z)
        worst_rel = max(worst_rel, abs(estimate - exact) / exact)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-4 and worst_time < 1.0
    assert report(
        "1 p2-resolvent-oracle", ok,
        f"max rel err {worst_rel:.2e} <= 1e-4, max time {worst_time:.3f}s < 1s"
    )


def test_criterion_2_forward_decomposition():
    start = time.perf_counter()
    grid = GridSpec(1, 2048, 40.0)
    plan = make_plan(2.0, 1.0, grid=grid, r0=0.25, tail_tol=1e-10)
    dec = forward_decomposition(plan)
    sym_ok = dec.certified_tail <= 1e-10 and (
        dec.reconstruction_error <= dec.certified_tail + 1e-10
    )
    rng = np.random.default_rng(2024)
    target = resolvent_symbol(2.0, 1.0)
    worst = 0.0
    for _ in range(20):
        f = random_band_limited(grid, 3.0, rng)
        rel = lp_norm(apply_forward(dec, f) - apply(target, f), 2) / lp_norm(f, 2)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = sym_ok and worst <= 1e-8 and elapsed < 10.0
    assert report(
        "2 forward-decomposition", ok,
        f"sup err {dec.reconstruction_error:.2e} <= tail {dec.certified_tail:.2e} + 1e-10, "
        f"op err {worst:.2e} <= 1e-8, {elapsed:.1f}s < 10s"
    )


def test_criterion_3_reverse_decomposition():
    grid = GridSpec(1, 2048, 40.0)
    plan = make_plan(2.0, 1.0, direction="reverse", grid=grid, truncation=60)
    dec = reverse_decomposition(plan)
    q = plan.q
    contraction_ok = dec.contraction_sup <= q / (1.0 - q) + 1e-10
    recon_ok = dec.reconstruction_error <= 1e-8
    ok = contraction_ok and recon_ok
    assert report(
        "3 reverse-decomposition", ok,
        f"contraction {dec.contraction_sup:.4f} <= {q / (1 - q):.4f}, "
        f"reconstruction {dec.reconstruction_error:.2e} <= 1e-8 at T=60"
    )


@pytest.fixture(scope="module")
def kernel_decay_table():
    plan = make_plan(2.0, 1.0, grid=GridSpec(1, 4096, 64.0), alpha0=2, beta0=0, r0=0.25)
    return plan, seminorm_table(plan, range(20, 61))


def test_criterion_4_kernel_decay_ratios(kernel_decay_table):
    plan, table = kernel_decay_table
    values = dict(table)
    worst_margin = -np.inf
    ok = True
    for n in range(20, 60):
        ratio = values[n + 1] / values[n]
        cap = (2 * plan.r0) ** plan.delta * ((n + 1) / n) ** plan.alpha0 * 1.1
        worst_margin = max(worst_margin, ratio - cap)
        ok = ok and ratio <= cap
    assert report(
        "4a kernel-decay-ratios", ok,
        f"max ratio-over-bound margin {worst_margin:.3f} (<= 0 required)"
    )


def test_criterion_4_kernel_decay_slope(kernel_decay_table):
    """Stated tolerance: slope of log s_n within 15% of delta * log(2 r0).

    Known red.  The geometric factor (2 r0)^delta majorizes the base symbol
    on the annulus but is not attained there: the annular cutoff's support
    edge pins the true decay rate at delta * log(2 r0 - r0^2), which for
    r0 = 0.25 already deviates 19% from the target before the smooth-edge
    finite-n corrections push the window slope further (measured about
    -0.96 against the target -0.69).  No compliant cutoff can meet the 15%
    tolerance at this r0; the assertion is kept as stated rather than
    loosened.
    """
    plan, table = kernel_decay_table
    slope = decay_slope(table)
    target = plan.delta * np.log(2.0 * plan.r0)
    deviation = abs(slope - target) / abs(target)
    ok = deviation <= 0.15
    assert report(
        "4b kernel-decay-slope", ok,
        f"slope {slope:.4f} vs target {target:.4f}, deviation {deviation:.1%} <= 15%"
    )


def test_criterion_5_spectrum_witnesses(sweep_grid):
    ns = (8, 16, 32, 64, 128)
    ok = True
    details = []
    for lam in (0.25, 0.5, 1.0):
        for p in (1.0, 2.0, 4.0):
            curve = decay_curve(ProbeSpec(lam, p, 1.0, n_values=ns), sweep_grid)
            ratios = [row["ratio"] for row in curve.rows]
            decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
            halving = max(halving_factors(curve.rows))
            ok = ok and decreasing and halving <= 0.8
            if lam < 1.0:
                ok = ok and curve.slope <= -0.9
            elif p == 2.0:
                ok = ok and curve.slope <= -1.8
            details.append(f"lam={lam} p={p} slope={curve.slope:.2f} halve={halving:.2f}")
    zero_worst = max(
        probe_ratio(ProbeSpec(0.0, p, 1.0, n_values=ns), n, sweep_grid)
        for p in (1.0, 2.0, 4.0)
        for n in ns
    )
    ok = ok and zero_worst <= 1e-12
    assert report(
        "5 spectrum-witnesses", ok,
        "; ".join(details) + f"; lam=0 worst ratio {zero_worst:.1e} <= 1e-12"
    )


def test_criterion_6_off_spectrum_control(sweep_grid):
    ns = (8, 16, 32, 64, 128)
    worst = np.inf
    for lam in (1.5, -0.5):
        for p in (1.0, 2.0, 4.0):
            rows = decay_curve(ProbeSpec(lam, p, 1.0, n_values=ns), sweep_grid).rows
            worst = min(worst, min(row["ratio"] for row in rows))
    ok = worst >= 0.45
    assert report(
        "6 off-spectrum-control", ok,
        f"min ratio {worst:.4f} >= 0.45 for lam in {{1.5, -0.5}}"
    )


def test_criterion_7_resolvent_blowup_map():
    eps_values = (0.1, 0.05, 0.025)
    oracle_ok = True
    details = []
    for eps in eps_values:
        oracle = resolvent_norm_oracle(0.5 + 1j * eps, 1.0)
        rel = abs(oracle - 1.0 / eps) * eps
        oracle_ok = oracle_ok and rel <= 0.01
        details.append(f"oracle(0.5+{eps}i)={oracle:.2f}")
    grid = probe_grid(256, 0.5)
    xi0 = snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0))
    probes = []
    for n in (32, 64, 128, 256):
        f = probe_field(xi0, n, grid)
        probes.append((f, lp_norm(f, 1)))
    bounds = [probe_lower_bound(0.5 + 1j * eps, 1.0, 1.0, grid, probes) for eps in eps_values]
    growth = [b / a for a, b in zip(bounds, bounds[1:])]
    growth_ok = all(g >= 1.8 for g in growth)
    ok = oracle_ok and growth_ok
    assert report(
        "7 resolvent-blowup-map", ok,
        "; ".join(details) + f"; p=1 growth per halving {[f'{g:.2f}' for g in growth]} >= 1.8"
    )


def test_criterion_8_weighted_probes():
    grid = probe_grid(64, 0.5)
    spec = ProbeSpec(0.5, 2.0, 1.0, n_values=(8, 16, 32, 64), weight_a=0.5)
    ratios = [weighted_probe_report(spec, n, grid)["ratio"] for n in spec.n_values]
    halving = max(b / a for a, b in zip(ratios, ratios[1:]))
    flat_spec = ProbeSpec(0.5, 2.0, 1.0, n_values=(8, 16, 32, 64), weight_a=0.0)
    mismatch = max(
        abs(weighted_probe_report(flat_spec, n, grid)["ratio"]
            - probe_ratio(ProbeSpec(0.5, 2.0, 1.0), n, grid))
        for n in spec.n_values
    )
    ok = halving <= 0.85 and mismatch <= 1e-12
    assert report(
        "8 weighted-probes", ok,
        f"max halving {halving:.3f} <= 0.85, a=0 mismatch {mismatch:.1e} <= 1e-12"
    )


def test_criterion_9_brute_force_oracle():
    grid = GridSpec(1, 128, 16.0)
    rng = np.random.default_rng(909)
    _, psi2 = cutoff_pair(0.25)
    symbols = (bochner_symbol(1.0), resolvent_symbol(2.0, 1.0), psi2)
    worst_apply, worst_circ = 0.0, 0.0
    for sym in symbols:
        matrix = dense_oracle(sym, grid)
        for _ in range(10):
            f = random_band_limited(grid, 4.0, rng)
            dev = np.max(np.abs(matrix @ f.samples - apply(sym, f).samples))
            worst_apply = max(worst_apply, dev)
        rolled = np.roll(np.roll(matrix, 1, axis=0), 1, axis=1)
        worst_circ = max(worst_circ, float(np.max(np.abs(matrix - rolled))))
    ok = worst_apply <= 1e-10 and worst_circ <= 1e-10
    assert report(
        "9 brute-force-oracle", ok,
        f"max apply deviation {worst_apply:.1e} <= 1e-10, "
        f"max circulant deviation {worst_circ:.1e} <= 1e-10"
    )


def test_criterion_10_norm_suite_structure():
    family = build_lp_family(4)
    r = np.linspace(0.0, family.valid_band, 4001)
    total = family.base.evaluate((r,)).real.copy()
    for ell in range(1, family.ell_max + 1):
        total += family.level_symbol(ell).evaluate((r,)).real
    residual = float(np.max(np.abs(total - 1.0)))

    grid = GridSpec(1, 4096, 64.0)
    f = random_band_limited(grid, 4.0, np.random.default_rng(10))
    b = besov_norm(f, 0.0, 2.0, 2.0, family)
    t = triebel_norm(f, 0.0, 2.0, 2.0, family)
    bt_gap = abs(b - t)

    flat = ap_constant_estimate(WeightSpec(0.0, 2.0), default_cube_family(16.0, 1))
    e0 = ap_constant_estimate(WeightSpec(0.5, 2.0), default_cube_family(16.0, 1, level=0))
    e1 = ap_constant_estimate(WeightSpec(0.5, 2.0), default_cube_family(16.0, 1, level=1))
    drift = abs(e1 - e0) / e0
    ok = residual <= 1e-12 and bt_gap <= 1e-10 and flat == 1.0 and drift <= 0.05
    assert report(
        "10 norm-suite-structure", ok,
        f"partition residual {residual:.1e} <= 1e-12, besov-triebel gap {bt_gap:.1e} <= 1e-10, "
        f"flat-weight estimate {flat} == 1, refinement drift {drift:.2%} <= 5%"
    )


def test_criterion_11_reproducibility(tmp_path):
    cfg = tmp_path / "probe.toml"
    cfg.write_text('lambdas = [0.25, 0.5]\nps = [2.0]\nns = [8, 16, 32, 64]\n')
    out1, out2 = tmp_path / "one", tmp_path / "two"
    code1 = cli_main(["probe", "--config", str(cfg), "--out", str(out1), "--seed", "3"])
    code2 = cli_main(["probe", "--config", str(cfg), "--out", str(out2), "--seed", "3"])
    identical = (out1 / "probe.csv").read_bytes() == (out2 / "probe.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    assert report(
        "11 reproducibility", ok,
        f"exit codes {code1}/{code2}, csv bodies byte-identical: {identical}"
    )
