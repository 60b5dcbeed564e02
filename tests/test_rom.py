"""Reduced model construction and integration.

The tensor core is checked against the definition of Galerkin projection:
brute-force evaluation of U^T F(mean + U xt) and U^T J(mean + U xt) U with
dense arithmetic on small random quadratic operators.  Strategy equivalences
(tensorial vs direct projection, sampled strategies vs their definitions)
are asserted at random reduced states, and the integrator contracts
(pass-through at dt=0, failure modes, iterate recording) on hand-built
models.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given
from hypothesis import strategies as st

from smdeim_rom import instrumentation
from smdeim_rom import io as artifact_io
from smdeim_rom.jacobian_approx import (
    build_mdeim_reference,
    approximate_matrix,
    build_smdeim,
)
from smdeim_rom.linalg import SingularMatrixError, leading_svd, thin_svd
from smdeim_rom.models import FullModel, ImplicitStage, full_solve
from smdeim_rom.models.burgers import build_burgers
from smdeim_rom.models.quadratic import QuadraticOperator
from smdeim_rom.models.swe import build_swe
from smdeim_rom.pod import PodBasis, pod_basis
from smdeim_rom.rom import (
    STRATEGIES,
    DeimFunctionJacobian,
    MatrixInterpolantJacobian,
    build_tensor_core,
    reduce_model,
    reduced_jacobian,
    rom_solve,
)
from smdeim_rom.stats import NewtonConvergenceError


def random_operator(rng, n, n_pairs=2, density=0.25):
    # factor rows must not be empty: the Jacobian pattern masks each factor
    # by the other's row occupancy, and the class requires factors inside it
    def sp():
        dense = rng.standard_normal((n, n))
        dense[rng.random((n, n)) > density] = 0.0
        dense[np.arange(n), np.arange(n)] = rng.standard_normal(n) + 3.0
        return scipy.sparse.csr_matrix(dense)

    return QuadraticOperator(linear=sp(), pairs=[(sp(), sp()) for _ in range(n_pairs)])


def manual_basis(rng, n, k, mean=None):
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    mean = np.zeros(n) if mean is None else mean
    return PodBasis(
        u=u, singulars=np.ones(k), k=k, gamma=1.0,
        centered=bool(mean.any()), mean=mean,
    )


def dense_jacobian(op, x, h=1e-7):
    n = op.n
    jac = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (op.rhs(x + e) - op.rhs(x - e)) / (2.0 * h)
    return jac


@pytest.mark.parametrize("use_mean", [False, True])
def test_tensor_core_is_exact_galerkin_projection(rng, use_mean):
    n, k = 12, 4
    op = random_operator(rng, n)
    mean = rng.standard_normal(n) if use_mean else None
    basis = manual_basis(rng, n, k, mean=mean)
    core = build_tensor_core(op, basis)
    for _ in range(4):
        xt = rng.standard_normal(k)
        x_full = basis.lift(xt)
        expect_rhs = basis.u.T @ op.rhs(x_full)
        assert np.linalg.norm(core.rhs(xt) - expect_rhs) <= 1e-10 * max(
            1.0, np.linalg.norm(expect_rhs)
        )
        expect_jac = basis.u.T @ (op.jacobian(x_full) @ basis.u)
        assert np.max(np.abs(core.jacobian(xt) - expect_jac)) <= 1e-10


def test_tensor_core_against_brute_force_tensor(rng):
    # independent triple-loop construction of the quadratic tensor
    n, k = 8, 3
    op = random_operator(rng, n, n_pairs=2)
    basis = manual_basis(rng, n, k)
    core = build_tensor_core(op, basis)
    u = basis.u
    quad = np.zeros((k, k, k))
    for g, h in op.pairs:
        gd, hd = g.toarray(), h.toarray()
        for j in range(k):
            for l in range(k):
                for p in range(k):
                    quad[j, l, p] += np.sum(
                        u[:, j] * (hd @ u[:, l]) * (gd @ u[:, p])
                    )
    assert np.max(np.abs(core.quad - quad)) <= 1e-12
    assert np.max(np.abs(core.lin - u.T @ op.linear @ u)) <= 1e-12
    assert np.max(np.abs(core.const)) <= 1e-12  # zero mean


def burgers_setup(n=31, n_t=41, k=6, gamma=1.0):
    model = build_burgers(n=n, n_t=n_t)
    traj, _, snaps = full_solve(model, n_t)
    basis = pod_basis(snaps[0].states, gamma=gamma, k_max=k)
    return model, traj, snaps, basis


@pytest.fixture(scope="module")
def burgers_rom_parts():
    return burgers_setup()


def peak_bytes(fn):
    """Peak traced allocation of one fn() call, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tensordot_rhs(core, xt):
    qx = np.tensordot(core.quad, xt, axes=([2], [0]))
    return core.const + core.lin @ xt + qx @ xt


def tensordot_jacobian(core, xt):
    term_a = np.tensordot(core.quad, xt, axes=([2], [0]))
    term_b = np.tensordot(core.quad, xt, axes=([1], [0]))
    return core.lin + term_a + term_b


@pytest.fixture(scope="module")
def k25_cores(tmp_path_factory, burgers_rom_parts):
    """A k=25 tensor core as built and as loaded back from an artifact."""
    model, _, snaps, _ = burgers_rom_parts
    rng = np.random.default_rng(25)
    basis = manual_basis(rng, model.n, 25, mean=0.1 * rng.standard_normal(model.n))
    rm = reduce_model(model, basis, "tensorial")
    path = tmp_path_factory.mktemp("core") / "tensorial.smdm"
    artifact_io.save_snapshots(path, snaps[0])
    artifact_io.save_reduced_model(path, rm)
    back = artifact_io.load_reduced_model(path, model)
    return {"built": rm.stages[0].core, "loaded": back.stages[0].core}


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_tensor_core_contractions_equal_tensordot_bit_for_bit(rng, k25_cores, source):
    core = k25_cores[source]
    for _ in range(5):
        xt = rng.standard_normal(core.k)
        assert np.array_equal(core.rhs(xt), tensordot_rhs(core, xt))
        assert np.array_equal(core.jacobian(xt), tensordot_jacobian(core, xt))


def test_tensor_core_jacobian_copies_no_k3_tensor(rng, k25_cores):
    core = k25_cores["loaded"]
    xt = rng.standard_normal(core.k)
    core.jacobian(xt)  # builds the contraction layouts
    assert peak_bytes(lambda: core.jacobian(xt)) < 8 * core.k**3


@pytest.fixture(scope="module")
def reference_parts():
    model, _, snaps, basis = burgers_setup(n=101)
    return model, basis, build_mdeim_reference(snaps[0], 8)


def test_vectorized_reducer_matches_einsum_oracle(reference_parts):
    model, basis, mi = reference_parts
    jac = MatrixInterpolantJacobian(model.stages[0].op, basis, mi)
    u, k, n = basis.u, basis.k, model.n
    oracle = np.einsum("aj,bl->ljba", u, u).reshape(k * k, n * n) @ mi.interp.projector
    assert np.max(np.abs(jac.reducer - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_vectorized_reducer_allocates_less_than_one_n_by_n_array(reference_parts):
    # the k^2-by-n^2 einsum factor would take 8 k^2 n^2 bytes
    model, basis, mi = reference_parts
    op = model.stages[0].op
    peak = peak_bytes(lambda: MatrixInterpolantJacobian(op, basis, mi))
    assert peak < 8 * model.n**2


@pytest.fixture(scope="module", params=["burgers-101", "swe-11x9-x", "swe-11x9-y"])
def sparse_parts(request):
    if request.param == "burgers-101":
        model, _, snaps, basis = burgers_setup(n=101)
        stage = 0
    else:
        model = build_swe(11, 9, n_t=21)
        _, _, snaps = full_solve(model)
        basis = pod_basis(np.hstack([s.states for s in snaps]), gamma=1.0, k_max=6)
        stage = "xy".index(request.param[-1])
    return model.stages[stage].op, basis, build_smdeim(snaps[stage], 8)


def test_sparse_reducer_matches_einsum_oracle(sparse_parts):
    op, basis, mi = sparse_parts
    jac = MatrixInterpolantJacobian(op, basis, mi)
    # the k^2-by-r factor with row j + k l equal to u_j(rows) (.) u_l(cols)
    u, k = basis.u, basis.k
    factor = np.einsum("qj,ql->ljq", u[mi.pattern.rows], u[mi.pattern.cols])
    oracle = factor.reshape(k * k, -1) @ mi.interp.projector
    assert jac.reducer.shape == oracle.shape
    assert np.max(np.abs(jac.reducer - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_sparse_reducer_allocates_under_a_quarter_of_the_einsum_factor(
    swe_run, swe_basis
):
    # the einsum factor takes 8 k^2 r bytes; one mode at a time needs O(n k)
    mi = build_smdeim(swe_run.snaps[0], 20)
    op, k = swe_run.model.stages[0].op, swe_basis.k
    peak = peak_bytes(lambda: MatrixInterpolantJacobian(op, swe_basis, mi))
    assert peak < 2 * k**2 * mi.pattern.r


def test_tensorial_equals_direct_projection(rng, burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    rm_t = reduce_model(model, basis, "tensorial")
    rm_d = reduce_model(model, basis, "direct-projection")
    assert rm_t.stages[0].jacobian.needs_lift is False
    assert rm_d.stages[0].jacobian.needs_lift is True
    for _ in range(5):
        xt = basis.project(snaps[0].states[:, rng.integers(snaps[0].n_cols)])
        xt = xt + 0.01 * rng.standard_normal(basis.k)
        j_t = reduced_jacobian(rm_t, xt)
        j_d = reduced_jacobian(rm_d, xt)
        assert np.max(np.abs(j_t - j_d)) <= 1e-12 * max(1.0, np.abs(j_t).max())


def test_directional_derivative_first_order(rng, burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    rm_exact = reduce_model(model, basis, "tensorial")
    xt = basis.project(snaps[0].states[:, 20])
    j_ref = reduced_jacobian(rm_exact, xt)
    errs = []
    for h in (1e-2, 1e-3):
        rm_h = reduce_model(model, basis, "directional-derivative", h=h)
        errs.append(np.linalg.norm(reduced_jacobian(rm_h, xt) - j_ref))
    ratio = errs[0] / errs[1]
    assert 7.0 <= ratio <= 13.0


def test_directional_derivative_matches_manual_differences(rng, burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    h = 0.01
    rm = reduce_model(model, basis, "directional-derivative", h=h)
    xt = basis.project(snaps[0].states[:, 7])
    x_full = basis.lift(xt)
    op = model.stages[0].op
    f0 = op.rhs(x_full)
    cols = [
        basis.u.T @ ((op.rhs(x_full + h * basis.u[:, j]) - f0) / h)
        for j in range(basis.k)
    ]
    assert np.allclose(reduced_jacobian(rm, xt), np.column_stack(cols), atol=1e-12)


def test_directional_derivative_batch_equals_column_loop(burgers_rom_parts):
    # one matrix rhs call gives the same bits as k single-column calls
    model, _, snaps, basis = burgers_rom_parts
    h = 0.01
    rm = reduce_model(model, basis, "directional-derivative", h=h)
    op = model.stages[0].op
    for col in (0, 7, 30):
        x_full = basis.lift(basis.project(snaps[0].states[:, col]))
        f0 = op.rhs(x_full)
        diffs = np.empty((model.n, basis.k))
        for j in range(basis.k):
            diffs[:, j] = (op.rhs(x_full + h * basis.u[:, j]) - f0) / h
        got = rm.stages[0].jacobian.evaluate(None, x_full)
        assert np.array_equal(got, basis.u.T @ diffs)


def test_directional_derivative_batch_equals_column_loop_swe(swe_run, swe_basis):
    # SWE 21x15: every pair lives on a third of the rows, so the block rhs
    # runs on the compressed support rows
    h = 0.01
    rm = reduce_model(swe_run.model, swe_basis, "directional-derivative", h=h)
    u = swe_basis.u
    for stage, snap, jac in zip(
        swe_run.model.stages, swe_run.snaps, (st.jacobian for st in rm.stages)
    ):
        for col in (0, 45):
            x_full = swe_basis.lift(swe_basis.project(snap.states[:, col]))
            f0 = stage.op.rhs(x_full)
            diffs = np.empty((swe_run.model.n, swe_basis.k))
            for j in range(swe_basis.k):
                diffs[:, j] = (stage.op.rhs(x_full + h * u[:, j]) - f0) / h
            assert np.array_equal(jac.evaluate(None, x_full), u.T @ diffs)


@pytest.mark.parametrize("case", ["burgers", "swe"])
def test_direct_projection_refills_one_jacobian(case, burgers_rom_parts, swe_run,
                                                swe_basis):
    # consecutive evaluations reuse one CSR; each must see its own state
    if case == "burgers":
        model, _, snaps, basis = burgers_rom_parts
    else:
        model, snaps, basis = swe_run.model, swe_run.snaps, swe_basis
    rm = reduce_model(model, basis, "direct-projection")
    op, jac = model.stages[0].op, rm.stages[0].jacobian
    for col in (3, snaps[0].n_cols - 1, 3):
        x = basis.lift(basis.project(snaps[0].states[:, col]))
        want = basis.u.T @ (op.jacobian(x) @ basis.u)
        assert np.array_equal(jac.evaluate(None, x), want)


def test_smdeim_strategy_matches_sampled_matrix_projection(rng, burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    m = 10
    rm = reduce_model(model, basis, "smdeim", snapshots=snaps, m=m)
    jac = rm.stages[0].jacobian
    assert jac.reducer.shape == (basis.k**2, m)
    mi = build_smdeim(snaps[0], m)
    op = model.stages[0].op
    for col in (3, 25):
        xt = basis.project(snaps[0].states[:, col]) + 0.02 * rng.standard_normal(basis.k)
        x_full = basis.lift(xt)
        samples = op.sample_jacobian(x_full, mi.sample_rows, mi.sample_cols)
        approx = approximate_matrix(mi, samples)
        oracle = basis.u.T @ (approx @ basis.u)
        got = jac.evaluate(xt, x_full)
        assert np.max(np.abs(got - oracle)) <= 1e-10 * max(1.0, np.abs(oracle).max())


def test_smdeim_with_full_rank_matches_direct_projection_on_training_state(
    burgers_rom_parts,
):
    model, _, snaps, basis = burgers_rom_parts
    rank = thin_svd(snaps[0].jacobian).rank
    rm_s = reduce_model(model, basis, "smdeim", snapshots=snaps, m=int(rank))
    rm_d = reduce_model(model, basis, "direct-projection")
    x = snaps[0].states[:, 11]
    xt = basis.project(x)
    # evaluate both at the exact training state (its Jacobian is in span)
    j_s = rm_s.stages[0].jacobian.evaluate(xt, x)
    j_d = basis.u.T @ (model.stages[0].op.jacobian(x) @ basis.u)
    assert np.max(np.abs(j_s - j_d)) <= 1e-8 * max(1.0, np.abs(j_d).max())


def test_deim_strategy_matches_row_sampled_definition(rng, burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    m = 8
    rm = reduce_model(model, basis, "deim", snapshots=snaps, m=m)
    jac = rm.stages[0].jacobian
    op = model.stages[0].op
    svd = thin_svd(snaps[0].nonlinear)
    from smdeim_rom.deim import deim_interpolant

    fn = deim_interpolant(svd.u, m)
    assert np.array_equal(jac.indexes, fn.indexes)
    xt = basis.project(snaps[0].states[:, 9])
    x_full = basis.lift(xt)
    rows = op.sample_nl_rows(x_full, fn.indexes).toarray()
    oracle = basis.u.T @ op.linear @ basis.u + (basis.u.T @ fn.projector) @ (
        rows @ basis.u
    )
    assert np.max(np.abs(jac.evaluate(xt, x_full) - oracle)) <= 1e-10


@functools.cache
def solved(name):
    """(model, snapshots) of a small Burgers or SWE 11x9 run."""
    model = build_burgers(n=31, n_t=41) if name == "burgers" else build_swe(11, 9, n_t=21)
    return model, full_solve(model)[2]


@functools.cache
def deim_case(name, centered):
    """(stage operator, its snapshots, basis) for Burgers or an SWE stage."""
    model, snaps = solved(name.split("-")[0])
    stage = "xy".index(name[-1]) if name.startswith("swe") else 0
    states = np.hstack([s.states for s in snaps])
    basis = pod_basis(states, gamma=1.0, k_max=6, centered=centered)
    return model.stages[stage].op, snaps[stage], basis


DEIM_CASES = ["burgers", "swe-x", "swe-y"]


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("name", DEIM_CASES)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_property_deim_reducer_equals_the_sampled_rows_formula(name, centered, data,
                                                               seed):
    op, snap, basis = deim_case(name, centered)
    indexes = np.array(data.draw(
        st.lists(st.integers(0, op.n - 1), min_size=1, max_size=12, unique=True)))
    rng = np.random.default_rng(seed)
    u, k = basis.u, basis.k
    left = rng.standard_normal((k, indexes.size))
    lin_reduced = u.T @ (op.linear @ u)
    jac = DeimFunctionJacobian(op, basis, indexes, left, lin_reduced)
    xt = basis.project(snap.states[:, rng.integers(snap.n_cols)])
    x = basis.lift(xt + 0.05 * rng.standard_normal(k))
    # the row-sampled definition: L_red + left (R U), R the sampled rows
    want = lin_reduced + left @ (op.sample_nl_rows(x, indexes) @ u)
    got = jac.evaluate(None, x)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("centered", [False, True])
@pytest.mark.parametrize("name", DEIM_CASES)
def test_deim_from_parts_rebuilds_its_factors_bit_for_bit(name, centered):
    model, snaps = solved(name.split("-")[0])
    _, _, basis = deim_case(name, centered)
    rm = reduce_model(model, basis, "deim", snapshots=snaps, m=8)
    for stage, st_red in zip(model.stages, rm.stages):
        jac = st_red.jacobian
        assert jac.left_e.shape == (basis.k, jac.plan.m)
        assert jac.u_e.shape == (jac.plan.m, basis.k)
        back = DeimFunctionJacobian.from_parts(stage.op, basis, None, **jac.parts())
        for attr in ("left_e", "u_e"):
            assert getattr(back, attr).flags.c_contiguous
            assert np.array_equal(getattr(back, attr), getattr(jac, attr))
        xt = rm.initial_reduced
        assert np.array_equal(back.evaluate(xt), jac.evaluate(xt))


def held_arrays(obj):
    """Every numpy array reachable through obj's attributes, except those of
    the stage operator it was built on."""
    seen, todo, arrays = set(), [obj], []
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif hasattr(item, "__dict__"):
            todo.extend(v for key, v in vars(item).items() if key != "op")
    return arrays


def test_deim_stages_hold_no_k2_by_e_array(swe_run):
    # SWE 21x15 at the benchmark's k=25, m=30; the two stages alternate, so
    # what one evaluation reads must stay small enough to remain in cache
    basis = pod_basis(swe_run.snaps[0].states, gamma=1.0, k_max=25)
    k = basis.k
    assert k == 25
    rm = reduce_model(swe_run.model, basis, "deim", snapshots=swe_run.snaps, m=30)
    for st_red in rm.stages:
        jac = st_red.jacobian
        e = jac.plan.m
        largest = max(a.size for a in held_arrays(jac))
        assert largest < k * k * e / 4, (largest, k, e)
        read = jac.left_e.nbytes + jac.u_e.nbytes + jac.lin_reduced.nbytes
        assert read <= 2 * 8 * k * e + 8 * k * k


@pytest.mark.parametrize("strategy", ["deim", "smdeim"])
def test_one_evaluation_counts_its_contraction_flops(burgers_rom_parts, strategy):
    model, _, snaps, basis = burgers_rom_parts
    rm = reduce_model(model, basis, strategy, snapshots=snaps, m=8)
    jac = rm.stages[0].jacobian
    k, e = basis.k, jac.plan.m
    before = instrumentation.snapshot()
    jac.evaluate(rm.initial_reduced)
    after = instrumentation.snapshot()
    # deim scales its k-by-e factor, then multiplies it by the e-by-k one;
    # smdeim multiplies its k^2-by-m reducer by the m samples
    want = k * e + 2 * k * k * e if strategy == "deim" else 2 * k * k * e
    assert after["reduced_jacobian_flops"] - before["reduced_jacobian_flops"] == want
    assert after["sample_flops"] - before["sample_flops"] == jac.plan.flops


def test_smdeim_refuses_an_interpolant_of_another_stage():
    model, snaps = solved("swe")
    _, _, basis = deim_case("swe-x", False)
    mi0, mi1 = (build_smdeim(snap, 12) for snap in snaps)
    assert mi0.pattern != mi1.pattern
    with pytest.raises(ValueError, match="stage 1"):
        reduce_model(model, basis, "smdeim", snapshots=snaps, m=12,
                     prebuilt={0: mi0, 1: mi0})
    rm = reduce_model(model, basis, "smdeim", snapshots=snaps, m=12,
                      prebuilt={0: mi0, 1: mi1})
    assert [stage.jacobian.plan.m for stage in rm.stages] == [12, 12]


@pytest.mark.parametrize("strategy", ["deim", "smdeim"])
def test_full_jacobian_refuses_an_interpolant_it_was_not_reduced_from(
    burgers_rom_parts, strategy
):
    from smdeim_rom.deim import deim_interpolant

    model, _, snaps, basis = burgers_rom_parts
    if strategy == "deim":
        interp = deim_interpolant(thin_svd(snaps[0].nonlinear).u, 10)
        other = dataclasses.replace(interp, indexes=interp.indexes[::-1])
    else:
        interp = build_smdeim(snaps[0], 10)
        other = dataclasses.replace(interp, sample_cols=interp.sample_cols[::-1])
    rm = reduce_model(model, basis, strategy, m=10, prebuilt={0: interp})
    jac, x = rm.stages[0].jacobian, snaps[0].states[:, 5]
    approx, _ = jac.full_jacobian(x, interp)
    assert approx.shape == (model.n, model.n)
    with pytest.raises(ValueError, match="not reduced from it"):
        jac.full_jacobian(x, other)


@pytest.mark.parametrize("name, strategy", [
    ("swe", "deim"), ("swe", "smdeim"), ("burgers", "mdeim-reference"),
])
def test_prebuilt_interpolants_stand_in_for_the_snapshots(tmp_path, name, strategy):
    # with an interpolant for every stage, reduce_model reads no snapshot
    # set, and the model is the one it builds from them, bit for bit
    from smdeim_rom.deim import deim_interpolant

    model, snaps = solved(name)
    basis = pod_basis(np.hstack([s.states for s in snaps]), gamma=1.0, k_max=8)
    m = 10
    build = {
        "deim": lambda snap: deim_interpolant(
            leading_svd(np.array(snap.nonlinear, order="F"), m).u, m),
        "smdeim": lambda snap: build_smdeim(snap, m),
        "mdeim-reference": lambda snap: build_mdeim_reference(snap, m),
    }[strategy]
    prebuilt = {j: build(snap) for j, snap in enumerate(snaps)}
    built = reduce_model(model, basis, strategy, snapshots=snaps, m=m)
    given = reduce_model(model, basis, strategy, m=m, prebuilt=prebuilt)
    built.offline_seconds = given.offline_seconds = 0.0
    for rm, path in ((given, tmp_path / "given.bin"), (built, tmp_path / "built.bin")):
        artifact_io.save_reduced_model(path, rm)
    assert (tmp_path / "given.bin").read_bytes() == (tmp_path / "built.bin").read_bytes()
    if len(snaps) > 1:
        with pytest.raises(ValueError, match="prebuilt interpolant for every stage"):
            reduce_model(model, basis, strategy, m=m, prebuilt={0: prebuilt[0]})


def test_mdeim_reference_strategy_agrees_with_smdeim(burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    m = 10
    rm_s = reduce_model(model, basis, "smdeim", snapshots=snaps, m=m)
    rm_r = reduce_model(model, basis, "mdeim-reference", snapshots=snaps, m=m)
    xt = rm_s.initial_reduced
    x_full = basis.lift(xt)
    j_s = rm_s.stages[0].jacobian.evaluate(xt, x_full)
    j_r = rm_r.stages[0].jacobian.evaluate(xt, x_full)
    assert np.max(np.abs(j_s - j_r)) <= 1e-10 * max(1.0, np.abs(j_s).max())


def test_strategy_validation(burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    with pytest.raises(ValueError):
        reduce_model(model, basis, "unknown")
    with pytest.raises(ValueError):
        reduce_model(model, basis, "smdeim")  # no snapshots
    with pytest.raises(ValueError):
        reduce_model(model, basis, "smdeim", snapshots=snaps)  # no m
    assert set(STRATEGIES) == {
        "direct-projection", "tensorial", "directional-derivative",
        "deim", "smdeim", "mdeim-reference",
    }


def zero_rhs_model(n=6, dt=0.25, n_t=5):
    op = QuadraticOperator(
        linear=scipy.sparse.csr_matrix((n, n)), pairs=[]
    )
    return FullModel(
        model_id="still",
        config_hash="t",
        n=n,
        dt=dt,
        default_n_t=n_t,
        initial_state=np.linspace(1.0, 2.0, n),
        stages=[ImplicitStage(name="s", op=op)],
    )


def test_zero_rhs_passes_through_bit_exact(rng):
    model = zero_rhs_model()
    basis = manual_basis(rng, model.n, 3)
    rm = reduce_model(model, basis, "tensorial")
    traj, stats = rom_solve(rm, 5)
    assert traj.shape == (3, 5)
    for j in range(5):
        assert np.array_equal(traj[:, j], rm.initial_reduced)
    assert stats.iterations == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        rom_solve(rm, 0)


def test_newton_failure_raises_and_continue_records(burgers_rom_parts):
    model, _, snaps, basis = burgers_rom_parts
    rm = reduce_model(model, basis, "tensorial", newton_tol=1e-16, newton_cap=2)
    with pytest.raises(NewtonConvergenceError) as err:
        rom_solve(rm, 8)
    assert err.value.step == 1
    assert err.value.iterations == 2
    assert "after 2 iterations" in str(err.value)
    traj, stats = rom_solve(rm, 8, continue_on_failure=True)
    assert traj.shape == (basis.k, 8)
    assert stats.failures
    assert all(iters <= 2 for iters in stats.iterations)


@pytest.mark.parametrize("strategy", ["tensorial", "smdeim", "direct-projection"])
def test_non_finite_residual_fails_fast(burgers_rom_parts, strategy):
    model, _, snaps, basis = burgers_rom_parts
    rm = reduce_model(model, basis, strategy, snapshots=snaps, m=10)
    x0 = rm.initial_reduced.copy()
    x0[0] = np.nan
    with pytest.raises(NewtonConvergenceError) as err:
        rom_solve(rm, 5, x0=x0)
    assert (err.value.step, err.value.iterations) == (1, 1)
    assert "after 1 iterations" in str(err.value)
    _, stats = rom_solve(rm, 5, x0=x0, continue_on_failure=True)
    assert stats.iterations == [1, 1, 1, 1]
    assert [f[0] for f in stats.failures] == [1, 2, 3, 4]


def test_singular_newton_matrix_raises_typed_error():
    # L = I / dt and a coordinate basis make the Newton matrix I - dt L zero
    model = zero_rhs_model(dt=0.25)
    model.stages[0].op = QuadraticOperator(
        linear=scipy.sparse.identity(model.n, format="csr") / 0.25, pairs=[]
    )
    basis = PodBasis(u=np.eye(model.n)[:, :3], singulars=np.ones(3), k=3,
                     gamma=1.0, centered=False, mean=np.zeros(model.n))
    rm = reduce_model(model, basis, "tensorial")
    with pytest.raises(NewtonConvergenceError) as err:
        rom_solve(rm, 5, continue_on_failure=True)
    assert (err.value.step, err.value.stage, err.value.iterations) == (1, "s", 1)
    assert isinstance(err.value.__cause__, SingularMatrixError)


def test_trajectory_tracks_projected_full_solution(burgers_rom_parts):
    model, traj_full, snaps, basis = burgers_rom_parts
    rm = reduce_model(model, basis, "smdeim", snapshots=snaps, m=12)
    traj_red, _ = rom_solve(rm, 41)
    lifted = basis.lift(traj_red)
    ref = basis.lift(basis.project(traj_full))
    err = np.linalg.norm(lifted - ref) / np.linalg.norm(ref)
    assert err <= 0.05
