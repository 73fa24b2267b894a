"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 2 checks each total mass on the law it belongs to: the walk's
first-return coefficients total 2(1-p) (the law is defective for p > 1/2),
while the normalized ``walk_return_law`` behind the dominating sequence has
unit mass.  Criterion 7 checks the tail envelope against the simultaneous
renewal time, exact and Monte Carlo: the first-gap term plus the double sum
dominates it at every lag.  The printed-scan trial total is not the meeting
time (it skips time-valid landings), so it is not what the envelope bounds.

Monte Carlo instances are seeded from ``zlib.crc32`` of their names, so every
run draws the same paths.
"""

import json
import math
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from renewalsim import (
    SimulationPlan,
    birth_death_schedule,
    bound_via_first_moment,
    bound_via_second_moment,
    compare_bounds,
    constant_birth_death,
    estimate_joint_renewal,
    estimate_regularity,
    estimate_renewal_tails,
    expectation_bound,
    first_return_coefficients,
    hitting_time_distribution,
    meeting_tail_envelope,
    periodic_birth_death,
    product_tail,
    regularity_from_floor,
    return_floor,
    trial_statistics,
    trial_tail_bound,
    walk_dominating_sequence,
    walk_moment1,
    walk_return_law,
)
from renewalsim.bounds import analytic_certificate
from renewalsim.cli import main as cli_main

from conftest import delta, last_trial_sums, periodic_two_state, two_state
from oracles import first_return_series

N_PATHS = 100_000


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _showcase_plan():
    spec = constant_birth_death(50, 0.75)
    sched = birth_death_schedule(spec)
    return SimulationPlan(sched, sched, delta(51, 0), delta(51, 0),
                          horizon=5000, n_paths=N_PATHS, master_seed=20190314)


@pytest.fixture(scope="module")
def showcase():
    """Constant-0.75 birth-death pair, both started at the floor state."""
    est = estimate_joint_renewal(_showcase_plan(), tail_len=256)
    gamma = regularity_from_floor(0.75, walk_moment1(0.75)).gamma
    return est, gamma


@pytest.fixture(scope="module")
def showcase_time_scan():
    """Same pair with the time-based trial scan (see trial_sequence)."""
    return estimate_joint_renewal(_showcase_plan(), tail_len=256, trial_scan="time")


def test_criterion_1_closed_form_reproduction():
    start = time.perf_counter()
    mu1 = walk_moment1(0.75)
    e1, _, mu2 = bound_via_second_moment(0.75, 0.1)
    e2 = bound_via_first_moment(0.75, 0.1)
    ok = (
        abs(mu1 - 5.0) <= 1e-12
        and abs(mu2 - 7.0) <= 1e-12
        and abs(e1 - 570.0) <= 1e-9
        and abs(e2 - 55.0) <= 1e-12
    )
    worst = 0.0
    for p in (0.6, 0.65, 0.7, 0.75, 0.8):
        for gamma in (0.1, 0.2, 0.3, 0.45):
            worst = max(worst, compare_bounds(p, gamma).identity_residual)
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-12 and elapsed < 1.0
    report("criterion 1", ok,
           f"mu1={mu1}, mu2={mu2}, bounds=({e1:.12g}, {e2:.12g}), "
           f"identity residual<= {worst:.3g} over 20 points, {elapsed:.3f}s")
    assert abs(mu1 - 5.0) <= 1e-12
    assert abs(mu2 - 7.0) <= 1e-12
    assert abs(e1 - 570.0) <= 1e-9
    assert abs(e2 - 55.0) <= 1e-12
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_coefficients_and_series():
    start = time.perf_counter()
    low_order_ok = True
    for p in (0.6, 0.75, 0.9):
        f = first_return_coefficients(p, 4)
        x = p * (1 - p)
        low_order_ok &= abs(f[2] - 2 * x) <= 1e-12 and abs(f[4] - 2 * x * x) <= 1e-12
    series_gap = 0.0
    for p in (0.6, 0.75, 0.9):
        closed = first_return_coefficients(p, 60)
        series = first_return_series(p, 60)
        series_gap = max(series_gap, float(np.abs(closed - series).max()))
    elapsed = time.perf_counter() - start
    ok = low_order_ok and series_gap <= 1e-12 and elapsed < 1.0
    report("criterion 2 (coefficients)", ok,
           f"f2/f4 pinned for p in (0.6, 0.75, 0.9); closed vs series gap {series_gap:.3g} "
           f"up to order 60; {elapsed:.3f}s")
    assert low_order_ok
    assert series_gap <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_total_mass_as_stated():
    # The first-return law of the unrestricted walk is defective for p > 1/2:
    # F(s) = 1 - sqrt(1 - 4p(1-p)s^2) gives a total of F(1) = 2(1-p).  The unit
    # mass belongs to the normalized law the dominating sequence is built from.
    mass_gap = 0.0
    envelope_ends = []
    for p in (0.6, 0.75, 0.9):
        total = float(first_return_coefficients(p, 2000).sum())
        mass_gap = max(mass_gap, abs(total - (1 - math.sqrt(1 - 4 * p * (1 - p)))))
        envelope_ends.append((p, walk_dominating_sequence(p, 2000).values[-1]))
    law_total = float(walk_return_law(0.75, 2000).sum())
    unit_ok = 1 - 1e-6 <= law_total <= 1 + 1e-12
    ends_ok = all(end < 1e-6 / p for p, end in envelope_ends)
    ok = mass_gap <= 1e-12 and unit_ok and ends_ok
    report("criterion 2 (total mass)", ok,
           f"first-return totals match 1 - sqrt(1 - 4p(1-p)) to {mass_gap:.3g} for p in "
           f"(0.6, 0.75, 0.9); walk_return_law total at p=0.75, order 2000: "
           f"{law_total:.12f}; envelope end values "
           f"{', '.join(f'{end:.3g}' for _, end in envelope_ends)}")
    assert mass_gap <= 1e-12
    assert unit_ok, f"walk_return_law total {law_total:.12f} is not 1"
    assert ends_ok, f"envelope does not vanish at order 2000: {envelope_ends}"


def _oracle_instances():
    bd1 = birth_death_schedule(constant_birth_death(3, 0.75))
    bd2 = birth_death_schedule(constant_birth_death(3, 0.7))
    bd3 = birth_death_schedule(constant_birth_death(3, 0.72))
    flip_mix = periodic_two_state([
        np.array([[0.5, 0.5], [0.5, 0.5]]),
        np.array([[0.9, 0.1], [0.2, 0.8]]),
    ])
    sym = two_state(0.5, 0.5)
    return [
        ("sym-2x2", sym, sym, delta(2, 1), delta(2, 1)),
        ("asym-2x2", two_state(0.3, 0.6), two_state(0.8, 0.5), delta(2, 1), delta(2, 0)),
        ("periodic-2x2", flip_mix, flip_mix, delta(2, 0), delta(2, 1)),
        ("bd-4x4", bd1, bd2, delta(4, 2), delta(4, 1)),
        ("mixed-2x4", sym, bd3, delta(2, 1), delta(4, 3)),
    ]


def test_criterion_3_oracle_agreement():
    start = time.perf_counter()
    lines = []
    ok = True
    for name, s1, s2, i1, i2 in _oracle_instances():
        exact = product_tail(s1, s2, i1, i2, horizon=2000)
        assert exact.table.residual < 1e-12, name
        plan = SimulationPlan(s1, s2, i1, i2, horizon=2000,
                              n_paths=N_PATHS, master_seed=zlib.crc32(name.encode()))
        est = estimate_joint_renewal(plan)
        gap = abs(est.mean - exact.expectation.low)
        inside = est.censored == 0 and gap <= 3 * est.se
        ok &= inside
        lines.append(f"{name}: |{est.mean:.4f} - {exact.expectation.low:.4f}| "
                     f"= {gap:.4f} vs 3SE = {3 * est.se:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report("criterion 3", ok, f"{'; '.join(lines)}; {elapsed:.1f}s")
    for line in lines:
        assert "vs" in line
    assert ok


def _bound_instance_homogeneous():
    spec1 = constant_birth_death(50, 0.75)
    spec2 = constant_birth_death(50, 0.72)
    return "homogeneous", spec1, spec2, delta(51, 4), delta(51, 2), 0.71


def _bound_instance_periodic():
    spec1 = periodic_birth_death(50, [0.7, 0.8])
    spec2 = periodic_birth_death(50, [0.78, 0.72])
    return "periodic", spec1, spec2, delta(51, 3), delta(51, 5), 0.7


def test_criterion_4_expectation_bound_soundness():
    start = time.perf_counter()
    lines = []
    ok = True
    for name, spec1, spec2, i1, i2, p in (
        _bound_instance_homogeneous(),
        _bound_instance_periodic(),
    ):
        assert min(spec1.inf_alpha(), spec2.inf_alpha()) >= p
        floor = return_floor(spec1.min_alpha_at_zero(), spec2.min_alpha_at_zero())
        cert = regularity_from_floor(floor, walk_moment1(p))
        envelope = walk_dominating_sequence(p, 2000)
        s1 = birth_death_schedule(spec1)
        s2 = birth_death_schedule(spec2)
        m1 = hitting_time_distribution(s1, i1, horizon=3000, tail_gamma=cert.gamma)
        m2 = hitting_time_distribution(s2, i2, horizon=3000, tail_gamma=cert.gamma)
        bound = expectation_bound(m1.expectation.high, m2.expectation.high,
                                  cert.n0, envelope.head, envelope.total_mass, cert.gamma)
        plan = SimulationPlan(s1, s2, i1, i2, horizon=5000,
                              n_paths=N_PATHS, master_seed=zlib.crc32(name.encode()))
        est = estimate_joint_renewal(plan)
        sound = math.isfinite(bound) and est.mean - 3 * est.se <= bound
        ok &= sound and est.censored == 0
        lines.append(f"{name}: mc {est.mean:.3f} (SE {est.se:.4f}) <= bound {bound:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report("criterion 4", ok, f"{'; '.join(lines)}; {elapsed:.1f}s")
    assert ok


def test_criterion_4_bound_exceeds_the_exact_mean():
    """The bound, built as ``full_report`` builds it, is at least the exact
    E[T] lower bound of the product chain on random accepted pairs."""
    start = time.perf_counter()
    ratios = []

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.floats(0.55, 0.95), label="p")
        cap = data.draw(st.integers(3, 30), label="cap")
        alpha = st.floats(p, 0.999)
        specs = [
            periodic_birth_death(cap, [
                np.array(data.draw(st.lists(alpha, min_size=cap, max_size=cap)))
                for _ in range(data.draw(st.integers(1, 3), label=f"phases{c}"))
            ])
            for c in (1, 2)
        ]
        assert min(s.inf_alpha() for s in specs) >= p
        starts = [delta(cap + 1, data.draw(st.integers(0, cap), label=f"start{c}")) for c in (1, 2)]
        s1, s2 = (birth_death_schedule(s) for s in specs)
        cert = analytic_certificate(*specs, p)
        envelope = walk_dominating_sequence(p, 2000)
        m1, m2 = (hitting_time_distribution(s, i, horizon=2000, tail_gamma=cert.gamma)
                  for s, i in zip((s1, s2), starts))
        bound = expectation_bound(m1.expectation.high, m2.expectation.high,
                                  cert.n0, envelope.head, envelope.total_mass, cert.gamma)
        low = product_tail(s1, s2, *starts, horizon=2000).expectation.low
        assert bound >= low, (p, cap, bound, low)
        ratios.append((bound / low, p, cap))

    check()
    tightest = min(ratios)
    elapsed = time.perf_counter() - start
    report("criterion 4, exact", True,
           f"{len(ratios)} pairs; tightest bound/E[T] {tightest[0]:.3f} "
           f"at p = {tightest[1]:.3f}, cap {tightest[2]}; {elapsed:.1f}s")


def test_criterion_5_pathwise_inequality(showcase):
    est, _ = showcase
    assert est.censored == 0
    assert (est.trials_to_success >= 0).all()
    # the gaps before the first success total the last trial sum, its gap being 0
    capped = last_trial_sums(est)
    violations = int((est.meeting_times > est.first_hit1 + capped).sum())
    report("criterion 5", violations == 0,
           f"{violations} violations of the pathwise cap over {est.n_paths} paths")
    assert violations == 0


def test_criterion_6_trial_tail_bound(showcase):
    est, gamma = showcase
    trials = est.trials_to_success
    assert (trials >= 0).all()
    worst = None
    ok = True
    for n in range(51):
        p_hat = float((trials > n).mean())
        se = math.sqrt(p_hat * (1 - p_hat) / est.n_paths)
        bound = trial_tail_bound(gamma, n) + 3 * se
        if p_hat > bound:
            ok = False
            worst = (n, p_hat, bound)
    report("criterion 6", ok,
           f"trial-count tail under (1-gamma)^n + 3SE for n <= 50 (gamma={gamma:.5f})"
           + ("" if ok else f"; violated at {worst}"))
    assert ok


def _trial_sum_tail(est, length):
    sums = last_trial_sums(est)
    assert (sums >= 0).all()  # every path has a trial
    lags = np.arange(length + 1)
    tail = (sums[None, :] > lags[:, None]).mean(axis=1)
    se = np.sqrt(tail * (1 - tail) / len(sums))
    return tail, se


def test_criterion_7_tail_envelope_as_stated(showcase):
    # The envelope bounds the simultaneous renewal time T, not the printed-scan
    # trial total, which skips time-valid landings and can far exceed T (see
    # trial_sequence).  It is the first-gap term P(S_0 > n) <= G[n - n0] plus the
    # double sum, which covers the rest of the decomposition and is 0 at lag 0.
    est, _ = showcase
    envelope = walk_dominating_sequence(0.75, 2000)
    stats = trial_statistics(est, max_sum=200)
    s_hat = meeting_tail_envelope(envelope, 0, stats, 200)
    bound = s_hat + np.array([envelope.at(n) for n in range(201)])
    sched = birth_death_schedule(constant_birth_death(50, 0.75))
    exact = product_tail(sched, sched, delta(51, 0), delta(51, 0), horizon=200).tails
    # 1e-12 absorbs rounding in the exact tail's 1 - cumsum
    exact_misses = [n for n in range(201) if bound[n] < exact[n] - 1e-12]
    mc_misses = [n for n in range(201) if bound[n] < est.tail[n] - 3 * est.tail_se[n]]
    ratio, worst = min((bound[n] / exact[n], n) for n in range(201) if exact[n] > 1e-12)
    ok = s_hat[0] == 0 and not exact_misses and not mc_misses
    report("criterion 7 (as stated)", ok,
           f"first-gap term plus double sum vs the meeting-time tail over lags 0..200: "
           f"misses exact at {exact_misses or 'none'}, MC - 3SE at {mc_misses or 'none'}; "
           f"smallest ratio to exact {ratio:.4f} at lag {worst}")
    assert s_hat[0] == 0
    assert not exact_misses
    assert not mc_misses


def test_criterion_7_time_scan_with_first_gap_term(showcase_time_scan):
    est = showcase_time_scan
    envelope = walk_dominating_sequence(0.75, 2000)
    stats = trial_statistics(est, max_sum=200)
    s_hat = meeting_tail_envelope(envelope, 0, stats, 200)
    corrected = s_hat + np.array([envelope.at(n) for n in range(201)])
    tail, se = _trial_sum_tail(est, 200)
    assert np.array_equal(last_trial_sums(est), est.meeting_times)
    violations = [n for n in range(201) if corrected[n] < tail[n] - 3 * se[n]]
    report("criterion 7 (time scan + first-gap term)", not violations,
           f"violations at lags {violations or 'none'} over 0..200")
    assert not violations


def test_criterion_8_condition_checkers():
    flip = two_state(0.0, 1.0)
    scan = estimate_regularity(flip, n0=0, base_times=[0, 1, 2, 3], lags=[0, 1, 2, 3, 4],
                               n_paths=2000, seed=41, initial=delta(2, 0))
    periodic_fails = any(p.observed and p.estimate < 0.01 for p in scan.points)
    rejected = scan.certificate() is None

    absorbed = two_state(1.0, 0.0)
    scan2 = estimate_regularity(absorbed, n0=0, base_times=[0, 1, 2], lags=[0, 1, 2, 3],
                                n_paths=2000, seed=43, initial=delta(2, 0))
    surf = estimate_renewal_tails(absorbed, [0, 2], [0], max_lag=20, n_paths=2000, seed=47)
    absorbed_ok = scan2.gamma_hat == 1.0 and bool(np.allclose(surf.tails[:, 1:], 0.0))

    ok = periodic_fails and rejected and absorbed_ok
    report("criterion 8", ok,
           f"period-2 chain rejected (some grid point < 0.01): {periodic_fails}; "
           f"absorbed chain gamma_hat={scan2.gamma_hat}, tails beyond lag 0 all zero: "
           f"{absorbed_ok}")
    assert periodic_fails and rejected
    assert absorbed_ok


def test_criterion_9_determinism_across_workers(tmp_path):
    cfg = {
        "version": 1,
        "name": "det",
        "target_set": [0],
        "chain1": {"birth_death": {"cap": 12, "tail": {"kind": "constant", "alphas": 0.75}}},
        "chain2": {"birth_death": {"cap": 12, "tail": {"kind": "periodic",
                                                       "alphas": [0.7, 0.8]}}},
        "initial1": {"state": 2},
        "initial2": {"state": 0},
        "horizon": 500,
        "n_paths": 4000,
        "seed": 4242,
        "domination": {"p": 0.7, "series_len": 500},
        "regularity": {"source": "analytic"},
        "tail_len": 64,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for i, workers in enumerate((1, 4)):
        out = tmp_path / f"run{i}"
        code = cli_main(["simulate", "--config", str(path), "--out-dir", str(out),
                         "--workers", str(workers), "--format", "csv"])
        assert code == 0
        data = json.loads((out / "det_simulate.json").read_text())
        data["meta"].pop("created_at")
        outs.append((json.dumps(data, sort_keys=True), (out / "det_paths.csv").read_text()))
    identical = outs[0] == outs[1]
    report("criterion 9", identical,
           "reports and per-path CSVs identical for workers 1 vs 4 (timestamp excluded)")
    assert identical
