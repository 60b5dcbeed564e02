"""Acceptance battery for the reduction stack.

Fourteen binding criteria covering the algebraic identities (gather/scatter
round trips, padded-factorization equivalence, interpolation error bounds),
route equivalences (gathered vs vectorized training, sampled vs exact
reduced Jacobians), physical correctness (finite-difference Jacobian checks,
steady states), statistical behavior of the Newton iteration, structural
counting laws, and the offline/online cost contracts.

Each criterion emits exactly one PASS/FAIL line.  The lines are printed as
the tests run and also collected in RESULT_LINES, which the conftest echoes
in a terminal-summary section so they remain visible under pytest's default
file-descriptor capture.  Tolerances and runtime budgets are part of the
criteria and asserted, not advisory.
"""

import dataclasses
import sys
import time

import numpy as np
import pytest

from smdeim_rom import instrumentation
from smdeim_rom.deim import deim_error_bound
from smdeim_rom.jacobian_approx import (
    approximate_matrix,
    build_mdeim_reference,
    build_smdeim,
    verify_lemma2,
)
from smdeim_rom.linalg import thin_svd
from smdeim_rom.models import full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.swe import build_swe
from smdeim_rom.pod import pod_basis
from smdeim_rom.rom import reduce_model, rom_solve
from smdeim_rom.snapshots import SparsityPattern, gather, scatter


RESULT_LINES = []


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}"
    RESULT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_gather_scatter_round_trips(rng):
    t0 = time.perf_counter()
    cases = 0
    exact = True
    while cases < 1000:
        n = int(np.exp(rng.uniform(np.log(2.0), np.log(512.0))))
        n = max(2, min(512, n))
        r = int(rng.integers(1, min(n * n, 2048) + 1))
        lin = rng.choice(n * n, size=r, replace=False)
        pat = SparsityPattern(n=n, rows=lin % n, cols=lin // n)
        vals = rng.standard_normal(r)
        vals[rng.random(r) < 0.05] = 0.0  # explicit zeros stay structural
        mat = scatter(vals, pat)
        exact &= bool(np.array_equal(gather(mat, pat), vals))
        rebuilt = scatter(gather(mat, pat), pat)
        exact &= (mat != rebuilt).nnz == 0
        coo = mat.tocoo()  # keeps the explicit zeros: the pattern is structural
        exact &= SparsityPattern(n, coo.row, coo.col) == pat
        cases += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "gather/scatter round trip",
        exact and elapsed < 5.0,
        f"1000 cases exact={exact} in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_padded_factorization_equivalence(burgers51):
    t0 = time.perf_counter()
    rep = verify_lemma2(burgers51.snaps[0])
    elapsed = time.perf_counter() - t0
    ok = (
        rep.reconstruction_residual <= 1e-10
        and rep.orthonormality_deviation <= 1e-12
        and elapsed < 10.0
    )
    report(
        2,
        "padded factorization reproduces vectorized snapshots",
        ok,
        f"recon={rep.reconstruction_residual:.2e} (<=1e-10) "
        f"ortho={rep.orthonormality_deviation:.2e} (<=1e-12) in {elapsed:.2f}s",
    )


def test_criterion_03_error_bound_dominance(burgers201, swe_run):
    violations = 0
    checked = 0
    for run in (burgers201, swe_run):
        snap = run.snaps[0]
        op = run.model.stages[0].op
        mi = build_smdeim(snap, m=10)
        for j in np.linspace(0, snap.n_cols - 1, 50).astype(int):
            x = snap.states[:, j]
            samples = op.sample_jacobian(x, mi.sample_rows, mi.sample_cols)
            approx = approximate_matrix(mi, samples)
            true = op.jacobian(x)
            err = np.linalg.norm((approx - true).toarray(), 2)
            true_norm = np.linalg.norm(true.toarray(), 2)
            bound = deim_error_bound(mi.interp, gather(true, snap.pattern))
            checked += 1
            if err > bound + 1e-12 * true_norm:
                violations += 1
    report(
        3,
        "interpolation error bound dominates",
        violations == 0 and checked == 100,
        f"{checked} approximations, {violations} violations",
    )


def test_criterion_04_index_agreement_between_routes(burgers201, swe_run):
    picks = []
    for snap, guard in ((burgers201.snaps[0], None), (swe_run.snaps[0], 1000)):
        fast = build_smdeim(snap, m=20)
        ref = build_mdeim_reference(snap, m=20, guard_n=guard)
        same = np.array_equal(
            fast.sample_rows[:20], ref.sample_rows[:20]
        ) and np.array_equal(fast.sample_cols[:20], ref.sample_cols[:20])
        picks.append(same)
    report(
        4,
        "first 20 interpolation coordinates agree across routes",
        all(picks),
        f"burgers={picks[0]} swe_x_stage={picks[1]} (order-exact)",
    )


def test_criterion_05_route_equivalence_along_rom_iterates(burgers51):
    model = burgers51.model
    basis = pod_basis(burgers51.snaps[0].states, gamma=1.0, k_max=10)
    rm_s = reduce_model(model, basis, "smdeim", snapshots=burgers51.snaps, m=10)
    rm_r = reduce_model(
        model, basis, "mdeim-reference", snapshots=burgers51.snaps, m=10
    )
    # record every reduced state at which the run evaluates a Newton matrix
    jac_s = rm_s.stages[0].jacobian
    evaluate = jac_s.evaluate
    iterates = []

    def recording(xt, x_full=None):
        iterates.append(xt.copy())
        return evaluate(xt, x_full)

    jac_s.evaluate = recording
    rom_solve(rm_s, 101)
    del jac_s.evaluate
    worst = 0.0
    count = 0
    for xt in iterates:
        x_full = basis.lift(xt)
        j_s = jac_s.evaluate(xt, x_full)
        j_r = rm_r.stages[0].jacobian.evaluate(xt, x_full)
        worst = max(worst, float(np.linalg.norm(j_s - j_r, "fro")))
        count += 1
    report(
        5,
        "gathered and vectorized reduced Jacobians agree on iterates",
        worst <= 1e-10,
        f"{count} iterates, worst Frobenius diff {worst:.2e} (<=1e-10)",
    )


def test_criterion_06_exact_strategy_agreement(burgers201):
    model = burgers201.model
    snap = burgers201.snaps[0]
    agree = 0.0
    for k in (5, 15, 25):
        bk = pod_basis(snap.states, gamma=1.0, k_max=k)
        rm_t = reduce_model(model, bk, "tensorial")
        rm_p = reduce_model(model, bk, "direct-projection")
        for col in (0, 100, 250, 400):
            xt = bk.project(snap.states[:, col])
            x_full = bk.lift(xt)
            j_t = rm_t.stages[0].jacobian.evaluate(xt, x_full)
            j_p = rm_p.stages[0].jacobian.evaluate(xt, x_full)
            agree = max(agree, float(np.max(np.abs(j_t - j_p))))
    basis = pod_basis(snap.states, gamma=1.0, k_max=25)
    rm_p = reduce_model(model, basis, "direct-projection")
    xt = basis.project(snap.states[:, 123])
    x_full = basis.lift(xt)
    j_ref = rm_p.stages[0].jacobian.evaluate(xt, x_full)
    errs = []
    for h in (1e-2, 1e-3):
        rm_h = reduce_model(model, basis, "directional-derivative", h=h)
        errs.append(
            float(np.max(np.abs(rm_h.stages[0].jacobian.evaluate(xt, x_full) - j_ref)))
        )
    ratio = errs[0] / errs[1]
    ok = agree <= 1e-12 and 7.0 <= ratio <= 13.0
    report(
        6,
        "exact strategies agree; difference strategy is first order",
        ok,
        f"tensorial-vs-projection max {agree:.2e} (<=1e-12), "
        f"h-ratio {ratio:.2f} (in [7,13])",
    )


def test_criterion_07_finite_difference_jacobians(burgers201, swe_run, rng):
    def directional_check(op, states, tol, h_scale):
        worst = 0.0
        for i in range(50):
            x = states[:, int(rng.integers(states.shape[1]))].copy()
            x += 0.01 * h_scale * rng.standard_normal(x.size)
            jac = op.jacobian(x)
            for _ in range(3):
                d = rng.standard_normal(x.size)
                d /= np.linalg.norm(d)
                h = 1e-6 * h_scale
                fd = (op.rhs(x + h * d) - op.rhs(x - h * d)) / (2.0 * h)
                ref = jac @ d
                denom = max(np.linalg.norm(ref), 1e-30)
                worst = max(worst, float(np.linalg.norm(fd - ref) / denom))
        return worst

    b_snap = burgers201.snaps[0]
    b_worst = directional_check(
        burgers201.model.stages[0].op, b_snap.states, 1e-6,
        float(np.abs(b_snap.states).max()),
    )
    s_scale = float(np.abs(swe_run.snaps[0].states).max())
    s_worst = 0.0
    for stage, snap in zip(swe_run.model.stages, swe_run.snaps):
        s_worst = max(
            s_worst, directional_check(stage.op, snap.states, 1e-5, s_scale)
        )
    ok = b_worst <= 1e-6 and s_worst <= 1e-5
    report(
        7,
        "Jacobians match central finite differences",
        ok,
        f"burgers worst {b_worst:.2e} (<=1e-6), swe worst {s_worst:.2e} (<=1e-5), "
        "50 states each",
    )


def test_criterion_08_error_decay_with_mode_count(burgers201):
    snap = burgers201.snaps[0]
    held_ids = np.array([j for j in range(snap.n_cols) if j % 10 == 9])
    train_ids = np.array([j for j in range(snap.n_cols) if j % 10 != 9])
    train = dataclasses.replace(
        snap,
        states=snap.states[:, train_ids],
        nonlinear=snap.nonlinear[:, train_ids],
        jacobian=snap.jacobian[:, train_ids],
    )
    held = snap.jacobian[:, held_ids]
    errs = {}
    for m in (5, 50):
        mi = build_smdeim(train, m)
        approx = mi.interp.projector @ held[mi.interp.indexes, :]
        errs[m] = float(np.linalg.norm(approx - held) / np.linalg.norm(held))
    decay = errs[5] / errs[50]
    # full-basis exactness needs a numerically full-rank training block: use
    # the longest leading column run whose rank equals its column count
    q = 40
    while thin_svd(snap.jacobian[:, :q]).rank < q:
        q = thin_svd(snap.jacobian[:, :q]).rank
    lead = dataclasses.replace(
        snap,
        states=snap.states[:, :q],
        nonlinear=snap.nonlinear[:, :q],
        jacobian=snap.jacobian[:, :q],
    )
    full = build_smdeim(lead, q)
    col = lead.jacobian[:, q // 2]
    recon = full.interp.projector @ col[full.interp.indexes]
    exactness = float(np.linalg.norm(recon - col) / np.linalg.norm(col))
    ok = decay >= 100.0 and exactness <= 1e-8
    report(
        8,
        "held-out error decays with mode count",
        ok,
        f"m=5 err {errs[5]:.2e} -> m=50 err {errs[50]:.2e} "
        f"(ratio {decay:.1e} >= 1e2); full-basis training error "
        f"{exactness:.1e} at n_s={q} (<=1e-8)",
    )


def test_criterion_09_newton_iteration_statistics(burgers201, basis201):
    t0 = time.perf_counter()
    full_mean = burgers201.stats.mean_iterations
    rm_s = reduce_model(
        burgers201.model, basis201, "smdeim", snapshots=burgers201.snaps, m=30
    )
    rm_d = reduce_model(
        burgers201.model, basis201, "deim", snapshots=burgers201.snaps, m=30
    )
    _, st_s = rom_solve(rm_s, 401)
    _, st_d = rom_solve(rm_d, 401)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(full_mean - 4.83) <= 1.0
        and abs(st_s.mean_iterations - 4.61) <= 1.0
        and abs(st_d.mean_iterations - 5.73) <= 1.0
        and st_d.mean_iterations > st_s.mean_iterations
        and elapsed < 300.0
    )
    report(
        9,
        "mean Newton iteration statistics",
        ok,
        f"full={full_mean:.3f} (4.83±1) sampled-matrix={st_s.mean_iterations:.3f} "
        f"(4.61±1) sampled-function={st_d.mean_iterations:.3f} (5.73±1, strictly "
        f"larger) in {elapsed:.1f}s (< 300s)",
    )


def test_criterion_10_pattern_counting_laws(swe_run):
    burgers_ok = True
    details = []
    for n in (51, 101, 201, 501):
        r = build_burgers(n=n, n_t=5).stages[0].op.pattern.r
        burgers_ok &= r == 3 * (n - 4) + 4
        details.append(f"n={n}:r={r}")
    r_x = swe_run.model.stages[0].op.pattern.r
    swe_ok = r_x == 3952
    report(
        10,
        "structural pattern counting laws",
        burgers_ok and swe_ok,
        f"burgers {' '.join(details)} (3(n-4)+4); swe x-stage r={r_x} (=3952)",
    )


def _median_seconds(fn, reps=3):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[reps // 2]


def test_criterion_11_offline_cost_ratio(burgers201):
    snap = burgers201.snaps[0]
    t_fast = _median_seconds(lambda: build_smdeim(snap, 30))
    t_ref = _median_seconds(lambda: build_mdeim_reference(snap, 30))
    ratio = t_ref / t_fast
    report(
        11,
        "gathered training is cheaper than vectorized training",
        ratio >= 5.0,
        f"median of 3: vectorized {t_ref:.3f}s / gathered {t_fast:.3f}s "
        f"= {ratio:.1f}x (>= 5x)",
    )


@pytest.fixture(scope="module")
def burgers501():
    model = build_burgers(n=501)
    traj, stats, snaps = full_solve(model, 401)
    return model, snaps


def test_criterion_12_online_cost_independent_of_dimension(
    burgers201, basis201, burgers501
):
    def online_profile(model, snaps, basis):
        rm = reduce_model(model, basis, "smdeim", snapshots=snaps, m=30)
        before = instrumentation.snapshot()
        with instrumentation.online_section():
            _, stats = rom_solve(rm, model.default_n_t)
        after = instrumentation.snapshot()
        fs, fr = (after[name] - before[name]
                  for name in ("sample_flops", "reduced_jacobian_flops"))
        return rm, fs, fr, sum(stats.iterations)

    def step_seconds(rm, n_t):
        _, st = rom_solve(rm, n_t)
        return st.online_seconds / (n_t - 1)

    model2 = burgers201.model
    model5, snaps5 = burgers501
    basis5 = pod_basis(snaps5[0].states, gamma=1.0, k_max=25)
    rm2, fs2, fr2, ev2 = online_profile(model2, burgers201.snaps, basis201)
    rm5, fs5, fr5, ev5 = online_profile(model5, snaps5, basis5)
    # the two sizes alternate, so a host stall slows both sides alike
    times2, times5 = [], []
    for _ in range(5):
        times2.append(step_seconds(rm2, model2.default_n_t))
        times5.append(step_seconds(rm5, model5.default_n_t))
    step2, step5 = np.median(times2), np.median(times5)
    # exact per-evaluation equality, checked without assuming divisibility
    flops_equal = fs2 * ev5 == fs5 * ev2 and fr2 * ev5 == fr5 * ev2
    ratio = step5 / step2
    ok = flops_equal and ratio <= 2.0
    report(
        12,
        "online per-step cost independent of full dimension",
        ok,
        f"per-eval flops n=201: {fs2 / ev2:.1f}+{fr2 / ev2:.1f}, "
        f"n=501: {fs5 / ev5:.1f}+{fr5 / ev5:.1f} (identical={flops_equal}); "
        f"per-step time ratio of the medians of 5 alternating solves "
        f"{ratio:.2f} (<= 2)",
    )


def test_criterion_13_rom_trajectory_fidelity(burgers201, basis201):
    model = burgers201.model

    def traj_error(strategy, **kwargs):
        rm = reduce_model(model, basis201, strategy, **kwargs)
        traj_red, _ = rom_solve(rm, 401)
        lifted = basis201.lift(traj_red)
        ref = basis201.lift(basis201.project(burgers201.trajectory))
        return float(np.linalg.norm(lifted - ref) / np.linalg.norm(ref))

    err_t = traj_error("tensorial")
    err_s = traj_error("smdeim", snapshots=burgers201.snaps, m=30)
    ok = abs(err_s - err_t) <= 0.1 * err_t
    report(
        13,
        "sampled-matrix ROM matches exact-strategy fidelity",
        ok,
        f"trajectory errors: exact {err_t:.3e}, sampled {err_s:.3e} "
        f"(within 10%)",
    )


def test_criterion_14_shallow_water_end_to_end(swe_run, swe_basis):
    ok_run = np.all(np.isfinite(swe_run.trajectory)) and not swe_run.stats.failures
    flat = build_swe(h1=0.0, h2=0.0)
    flat_traj, _, _ = full_solve(flat, 91)
    drift = float(np.abs(flat_traj - flat_traj[:, :1]).max())
    rm = reduce_model(
        swe_run.model, swe_basis, "smdeim", snapshots=swe_run.snaps, m=20
    )
    _, st = rom_solve(rm, 91)
    full_mean = swe_run.stats.mean_iterations
    ok = (
        ok_run
        and drift <= 1e-10
        and st.mean_iterations <= full_mean + 1.0
    )
    report(
        14,
        "shallow water end to end",
        ok,
        f"run completed={ok_run}; flat-rest drift {drift:.1e} (<=1e-10); "
        f"reduced mean iterations {st.mean_iterations:.2f} <= full "
        f"{full_mean:.2f} + 1",
    )
