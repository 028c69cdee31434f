"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from platoon_lab import (
    PlatoonConfig,
    RationalTF,
    SimScenario,
    StepSignal,
    closedform_eigenvalues,
    direct_response,
    gamma_sequence,
    harmonic_test,
    hinf_norm,
    open_loop,
    product_response,
    simulate,
    spectrum_report,
    verify_eigen_identities,
)
from platoon_lab.analysis import TEST_INCONCLUSIVE

from conftest import CONTROLLER, VEHICLE, block_stable, dense_reduced_eigs, make_block, make_cfg, rtf_eval


def report(num: int, desc: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_1_uniform_bound_certification():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        cfg = PlatoonConfig(
            n=n,
            gains=tuple(rng.uniform(1.0, 5.0, n - 1)),
            asymmetries=tuple(rng.uniform(0.0, 0.9, n - 1)),
            vehicle=VEHICLE,
            controller=CONTROLLER,
        )
        rep = spectrum_report(cfg)
        if rep.fiedler < rep.fiedler_lower:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    assert report(1, "uniform lower bound holds for 1000 random platoons", ok,
                  f"violations={violations}, {elapsed:.1f}s")


def test_criterion_2_closedform_cross_oracle():
    worst = worst_dense = 0.0
    band_ok = True
    for eps in (0.1, 0.25, 0.5, 0.9):
        lo, hi = (1 - math.sqrt(eps)) ** 2, (1 + math.sqrt(eps)) ** 2
        for n in range(3, 41):
            lam_cf = closedform_eigenvalues(n, eps)
            cfg = make_cfg(n, eps=eps)
            rep = spectrum_report(cfg)
            worst = max(worst, float(np.max(np.abs(lam_cf - np.asarray(rep.eigenvalues)))))
            band_ok &= bool(np.all(lam_cf >= lo) and np.all(lam_cf <= hi))
            # The dense general solver shares no code with either phase equation.  It loses
            # digits with the symmetrizing similarity's condition eps**(-(n - 2)/2), so it
            # checks the sizes where that stays below 1e6.
            if eps ** (-(n - 2) / 2) <= 1e6:
                worst_dense = max(worst_dense, float(np.max(np.abs(dense_reduced_eigs(cfg) - rep.eigenvalues))))
    ok = worst <= 1e-8 and worst_dense <= 1e-8 and band_ok
    assert report(2, "closed-form eigenvalues match the spectral solver", ok,
                  f"worst elementwise diff={worst:.2e}, dense={worst_dense:.2e}, band_ok={band_ok}")


def test_criterion_3_product_direct_equivalence():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 11))
        scale = rng.uniform(0.7, 1.3, 5)
        controller = RationalTF(
            num=(3.0 * scale[0], 43.0 * scale[1], 110.0 * scale[2]),
            den=(1.0, 2.9 * scale[3], 1.0 * scale[4]),
        )
        cfg = PlatoonConfig(
            n=n,
            gains=tuple(rng.uniform(0.5, 2.5, n - 1)),
            asymmetries=tuple(rng.uniform(0.0, 0.9, n - 1)),
            vehicle=VEHICLE,
            controller=controller,
        )
        rep = spectrum_report(cfg)
        M = open_loop(cfg)
        if not all(block_stable(make_block(lam, M)) for lam in rep.eigenvalues):
            continue
        checked += 1
        for w in rng.uniform(1e-2, 1e2, 30):
            d = direct_response(cfg, float(w))
            p = product_response(cfg, float(w))
            worst = max(worst, abs(p - d) / max(abs(d), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    assert report(3, "product form equals the state-space oracle", ok,
                  f"worst rel diff={worst:.2e} over 50 configs x 30 freqs, {elapsed:.1f}s")


def test_criterion_4_asymmetric_peak_growth():
    t0 = time.perf_counter()
    sizes = list(range(5, 51, 5))
    points = gamma_sequence(make_cfg(5, eps=0.5), sizes)
    gammas = np.array([p.gamma for p in points])
    monotone = bool(np.all(np.diff(gammas) > 0))
    log_g = np.log(gammas)
    fit = np.polyfit(sizes, log_g, 1)
    resid = np.max(np.abs(log_g - np.polyval(fit, sizes)))
    fit_ok = resid < 0.05 * (log_g.max() - log_g.min())
    block_bound_ok = all(
        p.zeta_min_lower is not None and p.gamma >= p.zeta_min_lower ** (p.n - 1)
        for p in points
    )
    elapsed = time.perf_counter() - t0
    ok = monotone and fit_ok and block_bound_ok and elapsed < 120.0
    assert report(4, "asymmetric peak gain grows geometrically with size", ok,
                  f"monotone={monotone}, fit residual={resid:.3f} of range "
                  f"{log_g.max() - log_g.min():.2f}, block bound ok={block_bound_ok}, "
                  f"{elapsed:.1f}s")


def test_criterion_5_symmetric_contrast():
    sizes = list(range(5, 51, 5))
    template = make_cfg(5, eps=1.0)
    points = gamma_sequence(template, sizes)
    roots = np.array([p.gamma_root_n for p in points])

    verdicts_ok = all(
        harmonic_test(make_cfg(n, eps=1.0)).verdict == TEST_INCONCLUSIVE for n in sizes
    )
    approaching_one = (roots[-1] - 1.0) <= 0.5 * (roots[0] - 1.0) and roots[-1] < 1.05
    non_increasing = bool(np.all(np.diff(roots) <= 1e-9))

    ok = verdicts_ok and approaching_one and non_increasing
    seq = ", ".join(f"{r:.5f}" for r in roots)
    report(5, "symmetric platoons: root gain non-increasing toward 1, test inconclusive", ok,
           f"inconclusive_all={verdicts_ok}, approaching_1={approaching_one}, "
           f"non_increasing={non_increasing}, gamma_root_n=[{seq}]")
    assert verdicts_ok, "harmonic test fired on a symmetric platoon"
    assert approaching_one, f"gamma_N^(1/N) does not approach 1: {seq}"
    # Strict claim kept as stated even though the measured sequence dips at
    # N=10 and then rises slowly while still tending to 1; see the ledger.
    assert non_increasing, f"gamma_N^(1/N) is not non-increasing: [{seq}]"


def test_criterion_6_dc_gain_contract():
    # two integrators: the deviation at omega = 1e-9 is O(omega^2), so the
    # near-zero evaluation meets the tolerance directly
    one = abs(1.0 * product_response(make_cfg(9, eps=0.5, mu=1.0), 1e-9) - 1.0)
    half = abs(product_response(make_cfg(9, eps=0.5, mu=2.0), 1e-9) - 0.5)
    # a single integrator deviates by ~3*omega at omega = 1e-9; the limit is
    # checked at omega = 0, where the block product is finite and exact
    single = PlatoonConfig(
        n=6, gains=(1.0,) * 5, asymmetries=(0.3,) * 5,
        vehicle=RationalTF((1.0,), (0.0, 1.0)),
        controller=RationalTF((2.0, 1.0), (1.0, 0.5)),
    )
    one_single = abs(1.0 * product_response(single, 0.0) - 1.0)
    ok = one <= 1e-9 and one_single <= 1e-9 and half <= 1e-9
    assert report(6, "unit DC gain through the leader coupling", ok,
                  f"|mu2*T-1| near 0: {one:.1e}, at 0 (one integrator): {one_single:.1e}, "
                  f"|T(0)-0.5| at mu2=2: {half:.1e}")


def test_criterion_7_two_integrator_peaks_and_alpha():
    rng = np.random.default_rng(107)
    M = open_loop(make_cfg(3))
    worst_gamma = math.inf
    alpha_ok = True
    for lam in rng.uniform(1e-6, 10.0, 100):
        lam = float(max(lam, 1e-6))
        blk = make_block(lam, M)
        gamma, w0 = hinf_norm(lambda w: rtf_eval(blk, 1j * np.asarray(w, dtype=float)))
        worst_gamma = min(worst_gamma, gamma)
        if gamma > 1.0:
            alpha = (lam * rtf_eval(M, 1j * w0)).real
            alpha_ok &= alpha < -0.5 + 1e-9
    ok = worst_gamma > 1.0 and alpha_ok
    assert report(7, "two-integrator loops always peak above one with alpha < -1/2", ok,
                  f"min gamma={worst_gamma:.4f}, alpha_ok={alpha_ok}")


def test_criterion_8_eigenvector_weight_identities():
    rng = np.random.default_rng(108)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 16))
        cfg = PlatoonConfig(
            n=n,
            gains=tuple(rng.uniform(0.8, 1.5, n - 1)),
            asymmetries=tuple(rng.uniform(0.05, 0.85, n - 1)),
            vehicle=VEHICLE,
            controller=CONTROLLER,
        )
        try:
            power_res, inverse_res = verify_eigen_identities(cfg)
        except ValueError:
            continue  # near-defective draw; the criterion covers non-defective configs
        checked += 1
        worst = max(worst, inverse_res, *(power_res if len(power_res) else [0.0]))
    ok = worst <= 1e-6
    assert report(8, "eigenvector weight identities hold to 1e-6", ok,
                  f"worst residual={worst:.2e} over 50 configs")


def test_criterion_9_step_response_reproduction():
    cfg = make_cfg(20, eps=0.5)
    coarse = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=150.0, dt=0.002))
    fine = simulate(SimScenario(cfg=cfg, leader_signal=StepSignal(1.0), t_end=150.0, dt=0.001))
    last = coarse.positions[:, -1]
    peak = float(last.max())
    overshoot_ok = peak > 2.0
    crossings = int(np.sum(np.diff(np.sign(last - 1.0)) != 0))
    oscillatory = crossings >= 4
    settled = abs(last[-1] - 1.0) <= 1e-3
    dt_shift = float(np.max(np.abs(fine.positions[::2] - coarse.positions)))
    convergence_ok = dt_shift < 1e-6
    ok = overshoot_ok and oscillatory and settled and convergence_ok
    assert report(9, "leader step: oscillatory, large overshoot, settles, dt-converged", ok,
                  f"peak={peak:.2f}, crossings={crossings}, |final-1|={abs(last[-1]-1):.1e}, "
                  f"dt-halving shift={dt_shift:.1e}")
