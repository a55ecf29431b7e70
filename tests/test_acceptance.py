"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with `pytest -s` to see
them on passing runs).  The heavy certification criterion scans the full
delta = 0.0005 subdivision (~7.6e8 boxes) and takes a few minutes.
"""

import math
import os

import numpy as np

from kissbound import (
    a_of_d,
    aux_cap_radius,
    cap_area_K,
    certify,
    contact_graph,
    coverage_audit,
    coverage_fraction,
    emit_certificate,
    fcc_fragment,
    g_profile,
    pair_sum,
    pair_sum_value,
    rho_geometry,
    sweep_rho,
)
from kissbound import certifier as certifier_module
from kissbound._kernels import box_density_upper_vec, density_vec
from kissbound.caps import aux_cap_threshold_radius, min_nonempty_radius

from conftest import sample_nonempty_pairs

WORKERS = os.cpu_count() or 1


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_a3_closed_form():
    value = a_of_d(3)
    expected = 8.0 + 4.0 * math.sqrt(3.0)
    diff = abs(value - expected)
    report(1, diff <= 1e-9, f"a(3) = {value:.12f}, |diff from 8+4*sqrt(3)| = {diff:.3e} (tol 1e-9)")


def test_criterion_02_higher_dimension_bounds():
    a4, a5 = a_of_d(4), a_of_d(5)
    a6, a7, a8 = a_of_d(6), a_of_d(7), a_of_d(8)
    checks = {
        "a(4) <= 34.681": a4 <= 34.681,
        "a(5) <= 77.757": a5 <= 77.757,
        "|a(6) - 170.579| <= 1e-3": abs(a6 - 170.579) <= 1e-3,
        "|a(7) - 368.736| <= 1e-3": abs(a7 - 368.736) <= 1e-3,
        "|a(8) - 788.645| <= 1e-3": abs(a8 - 788.645) <= 1e-3,
    }
    detail = (
        f"a(4)={a4:.6f} a(5)={a5:.6f} a(6)={a6:.6f} a(7)={a7:.6f} a(8)={a8:.6f}; "
        + "; ".join(f"{name}: {'ok' if ok else 'VIOLATED'}" for name, ok in checks.items())
    )
    report(2, all(checks.values()), detail)


def test_criterion_03_pair_sum_identity(rng):
    rho, r1, r2 = sample_nonempty_pairs(rng, 10_000)
    expected = (-rho * rho + 4.0 * rho - 3.0) / (4.0 * rho)
    worst = 0.0
    for a, b, c, e in zip(rho, r1, r2, expected):
        worst = max(worst, abs(pair_sum(a, b, c) - e))
    one_sided_ok = True
    for _ in range(1000):
        a = rng.uniform(1.05, 2.95)
        b = rng.uniform(0.01, 100.0)
        c = rng.uniform(0.0, 1.0) * min_nonempty_radius(a, b) * 0.999 + 1e-9
        if pair_sum(a, b, c) <= pair_sum_value(a):
            one_sided_ok = False
    ok = worst < 1e-12 and one_sided_ok
    report(
        3,
        ok,
        f"10^4 non-empty pairs: max |pair_sum - closed form| = {worst:.3e} "
        f"(tol 1e-12); one-sided inequality with an empty cap: "
        f"{'holds' if one_sided_ok else 'VIOLATED'}",
    )


def test_criterion_04_K_function_suite(rng):
    worst_min = 0.0
    worst_branch = 0.0
    for _ in range(200):
        rho = rng.uniform(1.05, 2.95)
        g = rho_geometry(rho)
        worst_min = max(worst_min, abs(cap_area_K(g, g.alpha_min)))
        plain = 2.0 * math.pi * (1.0 - math.cos(g.alpha_zero))
        cone_cos = math.cos(g.alpha_zero) / rho - math.sqrt(1.0 - 1.0 / rho**2) * math.sin(g.alpha_zero)
        cone = 2.0 * math.pi * (1.0 - ((rho * rho - 1.0) * (cone_cos + 1.0) + 4.0) / (4.0 * rho))
        worst_branch = max(worst_branch, abs(plain - cone))
    worst_consistency = 0.0
    for _ in range(1000):
        rho = rng.uniform(1.05, 2.95)
        g = rho_geometry(rho)
        if rng.uniform() < 0.5:
            r2 = rng.uniform(min_nonempty_radius(rho, 1.0), aux_cap_threshold_radius(rho, 1.0))
        else:
            r2 = rng.uniform(aux_cap_threshold_radius(rho, 1.0), 50.0)
        lhs = cap_area_K(g, aux_cap_radius(rho, 1.0, r2))
        rhs = 4.0 * math.pi * coverage_fraction(rho, 1.0, r2)
        worst_consistency = max(worst_consistency, abs(lhs - rhs))
    ok = worst_min < 1e-12 and worst_branch < 1e-12 and worst_consistency < 1e-12
    report(
        4,
        ok,
        f"|K(alpha_min)| <= {worst_min:.3e}, branch gap at alpha_zero <= "
        f"{worst_branch:.3e}, K-coverage gap <= {worst_consistency:.3e} (tol 1e-12)",
    )


def test_criterion_05_optimization_reproduction():
    results = sweep_rho(1.70, 1.80, 0.005, workers=WORKERS)
    best = min(results, key=lambda r: (r.objective, r.rho))
    ok = abs(best.rho - 1.755) <= 0.005 + 1e-12 and abs(best.objective - 13.908778) <= 1e-3
    report(
        5,
        ok,
        f"sweep [1.70, 1.80] step 0.005: argmin rho = {best.rho:.3f} "
        f"(expected 1.755 +- 0.005), min objective = {best.objective:.6f} "
        f"(expected 13.908778 +- 1e-3)",
    )


def test_criterion_06_certification_reproduction():
    chain = {}
    for delta in (0.004, 0.002, 0.001):
        chain[delta] = certify(1.755, delta, 14.5, workers=WORKERS)
    monotone = (
        chain[0.001].certified_bound <= chain[0.002].certified_bound + 1e-9
        and chain[0.002].certified_bound <= chain[0.004].certified_bound + 1e-9
    )
    cert = certify(1.755, 0.0005, 13.955, workers=WORKERS)
    ok = cert.passed and monotone and cert.boxes_checked == 756_884_460
    report(
        6,
        ok,
        f"delta=0.0005: certified k3 < {cert.certified_bound:.9f} over "
        f"{cert.boxes_checked} boxes (target 13.955, passed={cert.passed}); "
        f"refinement chain {chain[0.001].certified_bound:.6f} <= "
        f"{chain[0.002].certified_bound:.6f} <= {chain[0.004].certified_bound:.6f}: "
        f"{'ok' if monotone else 'VIOLATED'}",
    )
    # the optimum itself (~13.9088) stays below any valid target
    assert cert.certified_bound > 13.90


def test_criterion_07_certifier_soundness(rng):
    geom = rho_geometry(1.755)
    width = geom.interval_width
    violations = 0
    total = 0
    for _ in range(4):
        count = 250_000
        delta = rng.uniform(1e-5, 0.02, size=count)
        a = geom.alpha_min + rng.uniform(0.0, 1.0, size=count) * (width - delta)
        b = geom.alpha_min + rng.uniform(0.0, 1.0, size=count) * (width - delta)
        c = geom.alpha_min + rng.uniform(0.0, 1.0, size=count) * (width - delta)
        bounds = box_density_upper_vec(geom, a, b, c, a + delta, b + delta, c + delta)
        px = a + rng.uniform(0.0, 1.0, size=count) * delta
        py = b + rng.uniform(0.0, 1.0, size=count) * delta
        pz = c + rng.uniform(0.0, 1.0, size=count) * delta
        values = density_vec(geom, px, py, pz)
        violations += int(np.sum(~(bounds >= values)))
        total += count
    report(
        7,
        violations == 0,
        f"{total} random (box, interior point) pairs: {violations} violations "
        f"of box_density_upper >= density",
    )


def test_criterion_08_congruent_minimum_property(rng):
    ok = True
    worst_gap = 0.0
    for d in range(4, 9):
        for _ in range(100):
            C = float(rng.uniform(1.001, 1.999))
            center = g_profile(d, C, C / 2.0)
            for x in rng.uniform(C - 1.0, 1.0, size=100):
                gap = center - g_profile(d, C, float(x))
                worst_gap = max(worst_gap, gap)
                if gap > 1e-12:
                    ok = False
    spread = 0.0
    for _ in range(100):
        C = float(rng.uniform(1.001, 1.999))
        values = [g_profile(3, C, float(x)) for x in np.linspace(C - 1.0, 1.0, 100)]
        spread = max(spread, max(values) - min(values))
    ok = ok and spread < 1e-10
    report(
        8,
        ok,
        f"d in 4..8: g(C/2) <= g(x) with worst excess {worst_gap:.3e}; "
        f"d = 3: g spread {spread:.3e} (tol 1e-10)",
    )


def test_criterion_09_packing_audit():
    packing = fcc_fragment(2)
    graph = contact_graph(packing)
    interior_degree = graph.degrees()[0]
    certified = certify(1.755, 0.01, 20.0, workers=1)
    audit = coverage_audit(packing, 1.755, max_density_ref=certified.max_box_bound)
    ok = (
        interior_degree == 12
        and graph.average_degree <= 13.955
        and bool(audit.per_ball_ok)
        and audit.edge_sum_ok
    )
    report(
        9,
        ok,
        f"FCC n=2: interior degree {interior_degree} (expected 12), average "
        f"degree {graph.average_degree:.4f} <= 13.955, per-ball coverage sums "
        f"<= certified max density {certified.max_box_bound:.6f} + 1e-6: "
        f"{audit.per_ball_ok}",
    )


def test_criterion_10_certificate_determinism(monkeypatch, tmp_path):
    texts = []
    for workers in (1, 2, max(1, WORKERS)):
        cert = certify(1.755, 0.004, 14.5, workers=workers)
        texts.append(emit_certificate(cert))
    monkeypatch.setattr(certifier_module, "CHECKPOINT_EVERY", 100_000)
    checkpointed = certify(
        1.755, 0.004, 14.5, workers=1, checkpoint_path=str(tmp_path / "ckpt.json")
    )
    texts.append(emit_certificate(checkpointed))
    ok = all(text == texts[0] for text in texts)
    report(
        10,
        ok,
        f"{len(texts)} certify runs (worker counts 1/2/{max(1, WORKERS)} and a "
        f"checkpointed run) produced byte-identical certificates: {ok}",
    )
