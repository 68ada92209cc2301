"""Acceptance suite: every top-level criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run pytest with -s
to stream them).  Shared Monte Carlo ensembles are built once per session;
the benchmark configuration is white noise (unit-mass point covariance) in
one dimension with sigma == 1 at t = 1.
"""

import json
import math

import numpy as np
import pytest

from sheclt.cli import dispatch
from sheclt.entropy import (
    BoxClass,
    FiniteMetricSpace,
    ScaleClass,
    ShiftClass,
    chain_construct,
    chaining_empirical_check,
    covering_exponent,
    sandwich_check,
)
from sheclt.montecarlo import (
    ExperimentConfig,
    default_workers,
    default_z_tuples,
    ecf_gap,
    independence_report,
    ks_critical,
    ks_normal,
    marginal_variance_run,
    run_experiment,
    tail_check,
)
from sheclt.noise import Grid
from sheclt.occupation import (
    LipFunction,
    TestFunction,
    estimate_Bt,
    exact_Bt_constant_sigma,
)
from sheclt.solver import SigmaFunction, solve_batch
from sheclt.spectral import (
    CovarianceMeasure,
    DalangProfile,
    MomentBoundParams,
    lambda_of,
    log_moment_bound,
    resolvent_identity_check,
    upsilon,
)

pytestmark = pytest.mark.acceptance

WHITE = CovarianceMeasure("dirac", 1, 1.0)
IDENTITY = LipFunction.identity()
UNIT_BOX = TestFunction.box(0.0, 1.0, label="unit")
SEED = 20260810
WORKERS = default_workers()


def check(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


# -- shared ensembles --


@pytest.fixture(scope="session")
def benchmark_result():
    """Criterion 4/8/9 ensemble: N=64, dx=1/16, R=4000, sigma == 1."""
    config = ExperimentConfig(
        covariance=WHITE,
        sigma=SigmaFunction.constant(1.0),
        g_list=[IDENTITY],
        psi_list=[UNIT_BOX],
        t=1.0,
        n_ladder=[64.0],
        dx=1.0 / 16.0,
        replicas=4000,
        seed=SEED,
        workers=WORKERS,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def joint_box_result():
    """Criterion 5/7 ensemble: overlapping boxes and Brownian slices at N=64."""
    psis = [
        TestFunction.box(0.0, 2.0, label="box02"),
        TestFunction.box(1.0, 3.0, label="box13"),
        TestFunction.box(0.0, 0.25, label="Q(1/4)"),
        TestFunction.box(0.0, 0.5, label="Q(1/2)"),
        TestFunction.box(0.0, 1.0, label="Q(1)"),
        TestFunction.box(0.25, 0.5, label="inc2"),
        TestFunction.box(0.5, 1.0, label="inc3"),
    ]
    config = ExperimentConfig(
        covariance=WHITE,
        sigma=SigmaFunction.constant(1.0),
        g_list=[IDENTITY],
        psi_list=psis,
        t=1.0,
        n_ladder=[64.0],
        dx=1.0 / 8.0,
        replicas=2500,
        seed=SEED + 1,
        workers=WORKERS,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def bt_estimate():
    """Direct integrated-covariance estimate for the benchmark field."""
    grid = Grid(d=1, length=64.0, n=512, dt=(1.0 / 8.0) ** 2 / 2.0)
    fields, _ = solve_batch(
        grid, SigmaFunction.constant(1.0), WHITE, 1.0, SEED + 2, range(500)
    )
    return estimate_Bt(fields, grid, IDENTITY, t=1.0, f=WHITE)


@pytest.fixture(scope="session")
def independence_result():
    psis = [
        TestFunction.box(0.0, 1.0, label="box01"),
        TestFunction.box(2.0, 3.0, label="box23"),
        TestFunction.box(4.0, 5.0, label="box45"),
    ]
    config = ExperimentConfig(
        covariance=WHITE,
        sigma=SigmaFunction.constant(1.0),
        g_list=[IDENTITY],
        psi_list=psis,
        t=1.0,
        n_ladder=[16.0, 32.0, 64.0, 128.0],
        dx=1.0 / 8.0,
        replicas=2500,
        seed=SEED + 3,
        workers=WORKERS,
    )
    return run_experiment(config)


# -- criteria --


def test_criterion_01_dalang_exactness():
    prof = DalangProfile(WHITE)
    lam_grid = [0.1, 0.5, 1.0, 2.0, 10.0]
    worst_val = max(abs(upsilon(prof, lam) - (2 * lam) ** -0.5) for lam in lam_grid)
    worst_inv = max(
        abs(lambda_of(prof, upsilon(prof, lam)) - lam) / lam for lam in lam_grid + [3.7]
    )
    check(
        "1",
        worst_val < 1e-6 and worst_inv < 1e-8,
        f"dirac spectral integral max err {worst_val:.2e}, inversion {worst_inv:.2e}",
    )


def test_criterion_02_resolvent_identity():
    worst = 0.0
    for kind, param in (("dirac", 1.0), ("gaussian", 1.0), ("uniform", 1.0), ("exponential", 1.0)):
        prof = DalangProfile(CovarianceMeasure(kind, 1, 1.0, param))
        for lam in (0.1, 1.0, 10.0):
            lhs, rhs = resolvent_identity_check(prof, lam)
            worst = max(worst, abs(lhs - rhs) / rhs)
    check("2", worst < 1e-6, f"resolvent vs spectral max rel err {worst:.2e} over 4 kinds x 3 lambdas")


def test_criterion_03_marginal_variance():
    target = 1.0 / math.sqrt(math.pi)
    fine = marginal_variance_run(
        WHITE, SigmaFunction.constant(1.0), 1.0, 1.0 / 16.0, 16.0, 5000,
        seed=SEED + 4, workers=WORKERS,
    )
    finer = marginal_variance_run(
        WHITE, SigmaFunction.constant(1.0), 1.0, 1.0 / 32.0, 16.0, 5000,
        seed=SEED + 5, workers=WORKERS,
    )
    err16 = abs(fine.variance - target)
    err32 = abs(finer.variance - target)
    within = err16 < 0.10 * target
    shrinks = err32 < err16 + 2.0 * math.hypot(fine.se, finer.se)
    check(
        "3",
        within and shrinks,
        f"Var(u(1,.)) = {fine.variance:.4f} vs {target:.4f} (err {err16 / target:.1%}); "
        f"halved dx err {err32 / target:.1%}",
    )


def test_criterion_04_clt_benchmark(benchmark_result):
    values = benchmark_result.get(64.0, "unit", "identity").values
    var = float(np.var(values))
    ks = ks_normal(values, 0.0, var)
    crit = 0.026
    var_ok = abs(var - 1.0) < 0.10
    ks_ok = ks < crit
    check(
        "4",
        var_ok and ks_ok,
        f"Var(sqrt(N) S_N) = {var:.4f} (target 1 +- 10%), KS = {ks:.4f} < {crit}",
    )


def test_criterion_05_covariance_convergence(joint_box_result, bt_estimate):
    res = joint_box_result
    a = res.get(64.0, "box02", "identity").values
    b = res.get(64.0, "box13", "identity").values
    inner = TestFunction.box(0.0, 2.0).l2_inner(TestFunction.box(1.0, 3.0))  # = 1
    cov_ratio = float(np.cov(a, b)[0, 1]) / inner
    b_hat = bt_estimate.value
    cov_ok = abs(cov_ratio - b_hat) < 0.15 * b_hat
    var_ratio = float(np.var(a)) / TestFunction.box(0.0, 2.0).l2_inner(TestFunction.box(0.0, 2.0))
    consistent = abs(cov_ratio - var_ratio) < 0.15 * var_ratio
    check(
        "5",
        cov_ok and consistent,
        f"Cov/<psi,Psi> = {cov_ratio:.4f} vs B_hat = {b_hat:.4f}; psi=Psi ratio {var_ratio:.4f}",
    )


def test_criterion_06_asymptotic_independence(independence_result):
    res = independence_result
    ladder = [16.0, 32.0, 64.0, 128.0]
    labels = ["box01", "box23", "box45"]
    triple_z = default_z_tuples(3)
    pair_z = default_z_tuples(2)
    observed, null_se = [], []
    reports = {}
    for N in ladder:
        cols = res.joint(N, [(l, "identity") for l in labels])
        rep = independence_report(cols, triple_z, n_perm=200, seed=SEED)
        observed.append(rep.observed)
        null_se.append(rep.null_se)
        reports[N] = (cols, rep)
    cols_last, triple_rep = reports[128.0]
    pair_ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            pr = independence_report(cols_last[:, [i, j]], pair_z, n_perm=200, seed=SEED + i + 3 * j)
            pair_ok &= pr.passed
    gap_example = ecf_gap(cols_last[:, [0, 1]], np.array([1.0, -1.0]))
    monotone = all(
        observed[k + 1] <= observed[k] + 2.0 * null_se[k + 1] for k in range(3)
    )
    check(
        "6",
        pair_ok and triple_rep.passed and monotone and gap_example < 0.05,
        f"max triple gap at N=128: {triple_rep.observed:.4f} < null q99 {triple_rep.null_q99:.4f}; "
        f"pair gap example {gap_example:.4f} < 0.05; ladder gaps {[f'{v:.3f}' for v in observed]}",
    )


def test_criterion_07_brownian_fdd(joint_box_result):
    res = joint_box_result
    b_t = exact_Bt_constant_sigma(1.0, 1.0, WHITE)
    rs = [0.25, 0.5, 1.0]
    labels = {0.25: "Q(1/4)", 0.5: "Q(1/2)", 1.0: "Q(1)"}
    cols = {r: res.get(64.0, labels[r], "identity").values for r in rs}
    series = np.stack([cols[r] for r in rs], axis=1)
    cov = np.cov(series.T)
    pred = np.array([[b_t * min(a, b) for b in rs] for a in rs])
    max_rel = float(np.max(np.abs(cov - pred) / pred))
    inc_cols = np.stack(
        [
            res.get(64.0, "Q(1/4)", "identity").values,
            res.get(64.0, "inc2", "identity").values,
            res.get(64.0, "inc3", "identity").values,
        ],
        axis=1,
    )
    inc_rep = independence_report(inc_cols, default_z_tuples(3), n_perm=200, seed=SEED + 9)
    check(
        "7",
        max_rel < 0.15 and inc_rep.passed,
        f"Cov[X(r),X(r')] max rel dev {max_rel:.1%} (target <15%); "
        f"increment gap {inc_rep.observed:.4f} < null q99 {inc_rep.null_q99:.4f}",
    )


def test_criterion_08_tail_bound(benchmark_result):
    values = benchmark_result.get(64.0, "unit", "identity").values
    prof = DalangProfile(WHITE)
    from sheclt.spectral import moment_constants

    big, _ = moment_constants(0.5, 1.0, 1.0, WHITE)
    B = big  # Lip(g) = |psi|_2 = sqrt(T) = 1
    ell_grid = np.geomspace(0.25 * float(np.std(values)), 100.0 * B, 20)
    rows = tail_check(values, ell_grid, prof, eps=0.5, delta=0.5, T=1.0, B=B)
    n_violations = sum(r.violated for r in rows)
    check("8", n_violations == 0, f"0 flagged violations over {len(rows)} ell points (B = {B:.2f})")


def test_criterion_09_moment_bound(benchmark_result):
    values = benchmark_result.get(64.0, "unit", "identity").values
    prof = DalangProfile(WHITE)
    ok = True
    details = []
    for k in (2.0, 4.0):
        params = MomentBoundParams(eps=0.5, k=k, N=64.0, T=1.0, sigma0=1.0,
                                   lip_sigma=1.0, lip_g=1.0, psi_norm=1.0)
        log_bound_scaled = log_moment_bound(params, prof) + 0.5 * math.log(64.0)
        log_emp = math.log(float(np.mean(np.abs(values) ** k))) / k
        ok &= log_emp <= log_bound_scaled
        details.append(f"k={k:g}: log emp {log_emp:.2f} <= log bound {log_bound_scaled:.1f}")
    check("9", ok, "; ".join(details) + " (bound documented loose)")


def test_criterion_10_entropy_suite():
    rng = np.random.default_rng(SEED)
    sandwich_ok = True
    for _ in range(200):
        sp = FiniteMetricSpace.from_points(rng.normal(size=(int(rng.integers(2, 11)), 3)))
        r = float(rng.uniform(0.05, 1.2) * sp.diameter())
        sandwich_ok &= sandwich_check(sp, r).holds
    tele_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 21))
        sp = FiniteMetricSpace.from_points(rng.normal(size=(n, 3)))
        chain = chain_construct(sp)
        values = rng.integers(-1000, 1000, size=n).astype(float)
        root = chain.nets[0][0]
        for t in range(n):
            path = chain.chain_of(t)
            tele_ok &= sum(values[b] - values[a] for a, b in zip(path, path[1:])) == values[t] - values[root]
    spaces = [
        FiniteMetricSpace(dist=np.array([[0.0, 1.0], [1.0, 0.0]])),
        FiniteMetricSpace(
            dist=np.sqrt(np.abs(np.subtract.outer(np.linspace(0, 1, 16), np.linspace(0, 1, 16))))
        ),
        FiniteMetricSpace.from_points(rng.normal(size=(10, 2))),
    ]
    bound_ok = all(
        not chaining_empirical_check(sp, sp.diameter(), n_replicas=1000, seed=SEED + i).violated
        for i, sp in enumerate(spaces)
    )
    slopes = {
        "box(-2)": (covering_exponent(BoxClass(m=1.0, d=1), np.geomspace(0.09, 0.42, 7)).slope, -2.0),
        "shift(-1)": (covering_exponent(ShiftClass(n=1.0), np.geomspace(0.02, 0.3, 7)).slope, -1.0),
        "scale(-2)": (covering_exponent(ScaleClass(), np.geomspace(0.12, 0.6, 7)).slope, -2.0),
    }
    slopes_ok = all(abs(s - e) < 0.3 for s, e in slopes.values())
    check(
        "10",
        sandwich_ok and tele_ok and bound_ok and slopes_ok,
        "sandwich 200/200, telescoping 100/100, no chaining violations, slopes "
        + ", ".join(f"{k}={v[0]:.2f}" for k, v in slopes.items()),
    )


def test_criterion_11_necessity_shadow():
    details = []
    ok = True
    for c0 in (1.0, 2.0):
        for mass in (1.0, 2.0):
            f = CovarianceMeasure("dirac", 1, mass)
            config = ExperimentConfig(
                covariance=f,
                sigma=SigmaFunction.constant(c0),
                g_list=[IDENTITY],
                psi_list=[UNIT_BOX],
                t=1.0,
                n_ladder=[64.0],
                dx=1.0 / 8.0,
                replicas=2000,
                seed=SEED + int(10 * c0 + mass),
                workers=WORKERS,
            )
            res = run_experiment(config)
            var = float(np.var(res.get(64.0, "unit", "identity").values))
            target = exact_Bt_constant_sigma(c0, 1.0, f)
            ok &= abs(var - target) < 0.10 * target
            details.append(f"c0={c0:g},mass={mass:g}: {var:.3f}/{target:g}")
    check("11", ok, "Var within 10% of c0^2 f(R): " + "; ".join(details))


def test_criterion_12_determinism(tmp_path):
    config = {
        "covariance": {"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}},
        "sigma": {"kind": "constant", "params": [1.0]},
        "g": [{"kind": "identity"}],
        "psi": [{"label": "unit", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]}],
        "t": 1.0,
        "n_ladder": [64],
        "dx": 0.0625,
        "replicas": 300,
        "seed": SEED,
        "variance_tolerance": 0.5,
    }
    cfg_path = tmp_path / "benchmark.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"run-{tag}"
        code = dispatch(
            ["--out-dir", str(out), "--seed", str(SEED), "--workers", workers,
             "clt", "--config", str(cfg_path)]
        )
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.suffix == ".csv")
    identical = bool(names)
    for name in names:
        ref = (outs[0] / name).read_bytes()
        identical &= (outs[1] / name).read_bytes() == ref
        identical &= (outs[2] / name).read_bytes() == ref
    check(
        "12",
        identical,
        f"{len(names)} CSVs byte-identical across reruns and worker counts 1 vs 2",
    )


# -- module invariants that ride on the acceptance ensembles --


def test_variance_convergence_along_ladder(independence_result):
    # |empirical Var - predicted| non-increasing in N up to 2 MC std errors
    res = independence_result
    predicted = exact_Bt_constant_sigma(1.0, 1.0, WHITE)  # |psi|^2 = 1 per box
    devs, ses = [], []
    for N in [16.0, 32.0, 64.0, 128.0]:
        vals = res.get(N, "box01", "identity").values
        var = float(np.var(vals))
        devs.append(abs(var - predicted))
        ses.append(var * math.sqrt(2.0 / vals.size))
    ok = all(devs[k + 1] <= devs[k] + 2.0 * math.hypot(ses[k], ses[k + 1]) for k in range(3))
    check("inv-var-ladder", ok, f"|Var - B| along N ladder: {[f'{d:.4f}' for d in devs]}")


def test_ks_at_largest_n_below_critical(independence_result):
    vals = independence_result.get(128.0, "box01", "identity").values
    ks = ks_normal(vals, 0.0, float(np.var(vals)))
    crit = ks_critical(vals.size)
    check("inv-gaussianization", ks < crit, f"KS at N=128: {ks:.4f} < {crit:.4f}")
