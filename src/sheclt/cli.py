"""Command-line entry point wiring configs to experiments and reports.

Every run writes its outputs under --out-dir together with a manifest
recording the configuration hash, master seed, code version, parameters,
wall clock, and output list; the experiment subcommands (clt, independence,
fdd, tails) also record each N's grid.  Data files are byte-reproducible functions of
(config, seed); rerunning with the same manifest hash rewrites identical
CSV/JSON payloads.

Exit codes: 0 on success, 1 when at least one acceptance flag in the
summary is false, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ShecltError
from .io import save_array, write_csv
from .montecarlo import (
    MIN_KS_SAMPLES,
    ExperimentConfig,
    ExperimentResult,
    clt_report,
    default_workers,
    default_z_tuples,
    fdd_brownian_check,
    field_run,
    independence_report,
    independence_rhs,
    run_experiment,
    tail_check,
)
from .noise import (Grid, RngStream, empirical_noise_covariance, periodized_covariance,
                    sample_noise_slice, spectral_weights, stable_dt)
from .occupation import (MIN_BT_REPLICAS, BtEstimate, LipFunction, TestFunction, estimate_Bt,
                         exact_Bt_constant_sigma)
from .solver import SigmaFunction, solve_batch
from .spectral import (
    CovarianceMeasure,
    DalangProfile,
    MomentBoundParams,
    lambda_of,
    log_moment_bound,
    moment_constants,
    tail_bound,
    upsilon,
)

SEED_ENV = "SHECLT_SEED"


def parse_sigma_flag(text: str) -> SigmaFunction:
    kind, _, rest = text.partition(":")
    try:
        params = [float(v) for v in rest.split(",") if v] if rest else []
    except ValueError as exc:
        raise ConfigError(f"--sigma: parameters must be numbers ({exc})") from exc
    return SigmaFunction.from_config({"kind": kind, "params": params})


def _config_value(raw: dict, key: str, cast, default=None):
    """``cast(raw[key])`` (or of ``default`` when given and the key is
    absent); a value ``cast`` rejects is a ConfigError naming the key."""
    try:
        return cast(raw[key] if default is None else raw.get(key, default))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config.{key}: invalid value {raw.get(key)!r} ({exc})") from exc


def _positive_int(raw: dict, key: str, default: int) -> int:
    value = _config_value(raw, key, int, default)
    if value < 1:
        raise ConfigError(f"config.{key}: must be a positive integer, got {value}")
    return value


def _positive_float(raw: dict, key: str, default: float) -> float:
    value = _config_value(raw, key, float, default)
    if not 0.0 < value < math.inf:
        raise ConfigError(f"config.{key}: must be positive and finite, got {value}")
    return value


def _cells_per_axis(length: float, dx: float) -> int:
    if not dx > 0.0:
        raise ConfigError(f"--dx: cell width must be positive, got {dx}")
    if not 0.0 < length < math.inf:
        raise ConfigError(f"--L/--length: must be positive and finite, got {length}")
    cells = length / dx
    if not cells < math.inf:
        raise ConfigError(f"--dx: {dx} gives more cells than can be counted for length {length}")
    n = round(cells)
    if abs(cells - n) > 1e-9 * cells:
        raise ConfigError(f"--L/--length: {length} is not a whole number of cells of width "
                          f"--dx {dx}; the nearest whole-cell length is {max(n, 1) * dx:g}")
    return n


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RunManifest:
    """Reproducibility record attached to every output set."""

    def __init__(self, subcommand: str, params: dict, seed: int):
        self.subcommand = subcommand
        self.params = params
        self.seed = seed
        self.hash = hashlib.sha256(
            _canonical({"cmd": subcommand, "params": params, "seed": seed}).encode()
        ).hexdigest()[:16]
        self.outputs: list[str] = []
        self.grids: list[dict] = []
        self._t0 = time.perf_counter()

    def record_grids(self, result: ExperimentResult) -> None:
        """Each N's simulation grid: cells per axis, torus length, dt, steps."""
        t = result.config.t
        self.grids = [
            {"N": N, "n": g.n, "L": g.length, "dt": g.dt, "steps": round(t / g.dt),
             "cells_per_replica": g.n**g.d}
            for N, g in result.grids.items()
        ]

    def write(self, out_dir: Path) -> Path:
        record = {
            "manifest_hash": self.hash,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "version": __version__,
            "params": self.params,
            "wall_clock_s": time.perf_counter() - self._t0,
            "outputs": self.outputs,
        }
        if self.grids:
            record["grids"] = self.grids
        path = out_dir / f"manifest-{self.hash}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


def _finish(out_dir: Path, manifest: RunManifest, flags: dict, extra=None) -> int:
    """Write the summary and the manifest; exit code 0 if every flag holds, else 1."""
    summary = {
        "manifest_hash": manifest.hash,
        "flags": {k: bool(v) for k, v in flags.items()},
        "pass": bool(all(flags.values())),
    }
    if extra:
        summary["values"] = extra
    name = f"{manifest.subcommand}-summary-{manifest.hash}.json"
    (out_dir / name).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    manifest.outputs.append(name)
    manifest.write(out_dir)
    return 0 if summary["pass"] else 1


def _csv(out_dir: Path, manifest: RunManifest, name: str, header, rows) -> None:
    fname = f"{name}-{manifest.hash}.csv"
    write_csv(out_dir / fname, header, rows)
    manifest.outputs.append(fname)


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("config: --config FILE is required for this subcommand")
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path} ({exc})") from exc


def _experiment_from_config(raw: dict, seed: int, workers: int, replicas=None,
                            psi_list=None) -> ExperimentConfig:
    """The experiment ``raw`` describes; ``psi_list``, when given, stands in
    for the config's ``psi`` key, which is then neither required nor read."""
    for key in ("covariance", "sigma", "psi", "t", "n_ladder", "dx", "replicas"):
        if key not in raw and not (key == "psi" and psi_list is not None):
            raise ConfigError(f"config: missing key {key!r}")
    return ExperimentConfig(
        covariance=CovarianceMeasure.from_config(raw["covariance"]),
        sigma=SigmaFunction.from_config(raw["sigma"]),
        g_list=_config_value(raw, "g", lambda gs: [LipFunction.from_config(g) for g in gs],
                             [{"kind": "identity"}]),
        psi_list=psi_list if psi_list is not None else _config_value(
            raw, "psi", lambda ps: [TestFunction.from_config(p) for p in ps]),
        t=_config_value(raw, "t", float),
        n_ladder=_config_value(raw, "n_ladder", lambda ns: [float(n) for n in ns]),
        dx=_config_value(raw, "dx", float),
        replicas=replicas if replicas is not None else _config_value(raw, "replicas", int),
        seed=seed,
        baseline_replicas=_config_value(raw, "baseline_replicas", int, 400),
        workers=workers,
    )


def _run(command: str, raw: dict, cfg: ExperimentConfig) -> tuple[RunManifest, ExperimentResult]:
    """The one path of every experiment command from its config to its
    results: open the manifest, run every replica, record each N's grid."""
    manifest = RunManifest(command, {"config": raw, "replicas": cfg.replicas}, cfg.seed)
    result = run_experiment(cfg)
    manifest.record_grids(result)
    return manifest, result


def _bt_replicas(raw: dict) -> int:
    """The config's ``bt_replicas``, checked before any replica is solved."""
    n = _config_value(raw, "bt_replicas", int, 400)
    if n < MIN_BT_REPLICAS:
        raise ConfigError(f"config.bt_replicas: estimate_Bt needs at least {MIN_BT_REPLICAS} "
                          f"replicas, got {n}")
    return n


def _reference_bt(cfg: ExperimentConfig, g_list, bt_replicas) -> list[tuple[float, str, BtEstimate | None]]:
    """(B_t, source, Monte Carlo estimate or None) for each observable in ``g_list``.

    Exact for constant sigma with the identity observable; every other
    observable gets its own estimate from one shared dedicated field run of
    ``bt_replicas`` replicas.
    """
    sigma = cfg.sigma
    fields = None
    out = []
    for g in g_list:
        if sigma.is_constant and g.kind == "identity":
            c0 = float(sigma(np.array(1.0)))
            out.append((exact_Bt_constant_sigma(c0, cfg.t, cfg.covariance), "exact", None))
            continue
        if fields is None:
            grid = cfg.grid_for(cfg.n_ladder[0])
            fields = field_run(
                cfg.covariance, sigma, cfg.t, grid, bt_replicas,
                cfg.seed, domain=20_000, workers=cfg.workers,
            )
        est = estimate_Bt(fields, grid, g, t=cfg.t, f=cfg.covariance)
        out.append((est.value, "mc", est))
    return out


# -- subcommands --


def cmd_bounds(args, out_dir: Path) -> int:
    f = CovarianceMeasure(kind=args.kind, dimension=args.d, mass=args.mass, param=args.param)
    profile = DalangProfile(f)
    params = {
        "kind": args.kind, "d": args.d, "mass": args.mass, "param": args.param,
        "lambda": args.lam, "a": args.a, "eps": args.eps, "k": args.moment_k,
        "T": args.big_t, "N": args.n_scale, "sigma0": args.sigma0,
        "lip_sigma": args.lip_sigma, "lip_g": args.lip_g, "psi_norm": args.psi_norm,
        "ell": args.ell, "delta": args.delta,
    }
    manifest = RunManifest("bounds", params, seed=0)
    rows = []
    for lam in args.lam:
        rows.append(("upsilon", lam, upsilon(profile, lam)))
    for a in args.a:
        rows.append(("lambda_of", a, lambda_of(profile, a)))
    big, small = moment_constants(args.eps, args.sigma0, args.lip_sigma, f)
    rows.append(("A_eps", args.eps, big))
    rows.append(("a_eps", args.eps, small))
    mb = MomentBoundParams(
        eps=args.eps, k=args.moment_k, N=args.n_scale, T=args.big_t,
        sigma0=args.sigma0, lip_sigma=args.lip_sigma, lip_g=args.lip_g,
        psi_norm=args.psi_norm,
    )
    rows.append(("log_moment_bound", args.moment_k, log_moment_bound(mb, profile)))
    sigma_scale = max(abs(args.sigma0), abs(args.lip_sigma))
    B = big * args.lip_g * args.psi_norm * math.sqrt(args.big_t)
    for ell in args.ell:
        rows.append(
            ("tail_bound", ell,
             tail_bound(ell, args.eps, args.delta, args.big_t, B, profile, sigma_scale))
        )
    _csv(out_dir, manifest, "bounds", ("quantity", "input", "value"), rows)
    return _finish(out_dir, manifest, {"evaluated": True})


def cmd_noise_check(args, out_dir: Path, seed: int) -> int:
    f = CovarianceMeasure(kind=args.kind, dimension=args.d, mass=args.mass, param=args.param)
    n = _cells_per_axis(args.length, args.dx)
    grid = Grid(d=args.d, length=n * args.dx, n=n, dt=stable_dt(args.dx, args.d))
    params = {"kind": args.kind, "d": args.d, "mass": args.mass, "param": args.param,
              "dx": args.dx, "length": args.length, "slices": args.slices,
              "max_lag": args.max_lag}
    manifest = RunManifest("noise-check", params, seed)
    weights = spectral_weights(grid, f)
    stream = RngStream(seed=seed)
    slices = [sample_noise_slice(grid, weights, grid.dt, stream, step=k) for k in range(args.slices)]
    rep = empirical_noise_covariance(slices, max_lag=args.max_lag)
    targets = grid.dt * periodized_covariance(grid, f, lags=range(args.max_lag + 1))
    # standard errors of the pooled estimators for a stationary Gaussian field
    # with covariance C = dt F_grid: at lag h, sum_r [C(r)^2 + C(r+h) C(r-h)]
    # over cells and slices; across time, sum_r C(r)^2
    cov = grid.dt * periodized_covariance(grid, f)
    n_samp = args.slices * cov.size
    sq = float(np.sum(cov * cov))
    se_lag = np.array([
        math.sqrt((sq + float(np.sum(np.roll(cov, -h, axis=0) * np.roll(cov, h, axis=0)))) / n_samp)
        for h in range(args.max_lag + 1)
    ])
    se_cross = math.sqrt(sq / n_samp)
    rows = [
        (lag, rep.spatial_cov[lag], targets[lag], rep.cross_time_cov[lag])
        for lag in range(args.max_lag + 1)
    ]
    _csv(out_dir, manifest, "noise-cov", ("lag", "spatial_cov", "target", "cross_time_cov"), rows)
    flags = {
        "variance_matches": abs(rep.spatial_cov[0] - targets[0]) < 4 * se_lag[0],
        "lags_match": bool(np.all(np.abs(rep.spatial_cov[1:] - targets[1:]) < 5 * se_lag[1:])),
        "white_in_time": bool(np.all(np.abs(rep.cross_time_cov) < 5 * se_cross)),
        "not_degenerate": not rep.degenerate,
    }
    return _finish(out_dir, manifest, flags)


def cmd_solve(args, out_dir: Path, seed: int) -> int:
    f = CovarianceMeasure(kind=args.kind, dimension=args.d, mass=args.mass, param=args.param)
    sigma = parse_sigma_flag(args.sigma)
    n = _cells_per_axis(args.length, args.dx)
    dt = args.dt if args.dt is not None else stable_dt(args.dx, args.d)
    grid = Grid(d=args.d, length=n * args.dx, n=n, dt=dt)
    params = {"kind": args.kind, "d": args.d, "mass": args.mass, "param": args.param,
              "sigma": args.sigma, "t": args.t, "dx": args.dx, "dt": dt,
              "L": grid.length, "replicas": args.replicas}
    manifest = RunManifest("solve", params, seed)
    fields, _ = solve_batch(grid, sigma, f, args.t, seed, range(args.replicas))
    axes = tuple(range(1, fields.ndim))
    rows = [
        (r, float(fields[r].mean()), float(fields[r].var()))
        for r in range(args.replicas)
    ]
    _csv(out_dir, manifest, "solve-stats", ("replica", "mean", "variance"), rows)
    if args.dump_fields:
        name = f"fields-{manifest.hash}.bin"
        save_array(out_dir / name, fields, meta=params)
        manifest.outputs.append(name)
    mean = float(fields.mean(axis=axes).mean())
    se = float(fields.mean(axis=axes).std()) / math.sqrt(args.replicas)
    flags = {"mean_one": abs(mean - 1.0) < 4 * se + 1e-12}
    return _finish(out_dir, manifest, flags, extra={"mean": mean, "mean_se": se})


def cmd_clt(args, out_dir: Path, seed: int, workers: int) -> int:
    raw = _load_config(args.config)
    cfg = _experiment_from_config(raw, seed, workers, replicas=args.replicas)
    var_tol = _positive_float(raw, "variance_tolerance", 0.10)
    cov_tol = _positive_float(raw, "covariance_tolerance", 0.15)
    if cfg.replicas < MIN_KS_SAMPLES:
        raise ConfigError(f"replicas: the KS normality check needs at least {MIN_KS_SAMPLES}, "
                          f"got {cfg.replicas}")
    bt_replicas = _bt_replicas(raw)
    manifest, result = _run("clt", raw, cfg)
    bts = _reference_bt(cfg, cfg.g_list, bt_replicas)
    b_t = bts[0][0]  # the joint covariance flags pair g_list[0] samples
    flags = {}
    rows = []
    sample_rows = []
    for N in cfg.n_ladder:
        for psi in cfg.psi_list:
            for g, (g_bt, _, _) in zip(cfg.g_list, bts):
                ens = result.get(N, psi, g)
                rep = clt_report(ens.values, psi.l2_inner(psi), g_bt)
                key = f"N={N:g}|{psi.label}|{g.label}"
                rows.append((N, psi.label, g.label, rep.mean, rep.variance,
                             rep.predicted_variance, rep.ks_distance, rep.ks_critical))
                if rep.predicted_variance > 0:
                    flags[f"variance_ok|{key}"] = (
                        abs(rep.variance - rep.predicted_variance)
                        <= var_tol * rep.predicted_variance
                    )
                flags[f"ks_ok|{key}"] = rep.gaussian
                for r, v in enumerate(ens.values):
                    sample_rows.append((r, N, psi.label, g.label, v))
        # joint covariance of each overlapping pair against <psi_i, psi_j> B_t
        if len(cfg.psi_list) > 1:
            cov = np.cov(result.joint(N, [(p, cfg.g_list[0]) for p in cfg.psi_list]).T)
            for i, p in enumerate(cfg.psi_list):
                for j, q in enumerate(cfg.psi_list[i + 1:], start=i + 1):
                    inner = p.l2_inner(q)
                    if abs(inner) > 1e-12:
                        flags[f"cov_ok|N={N:g}|{p.label}~{q.label}"] = (
                            abs(cov[i, j] / (inner * b_t) - 1.0) <= cov_tol
                        )
    _csv(out_dir, manifest, "clt-report",
         ("N", "psi", "g", "mean", "variance", "predicted_variance", "ks", "ks_critical"),
         rows)
    _csv(out_dir, manifest, "clt-samples", ("replica", "N", "psi", "g", "value"), sample_rows)
    extra = {"b_t": {g.label: v for g, (v, _, _) in zip(cfg.g_list, bts)},
             "b_t_source": {g.label: src for g, (_, src, _) in zip(cfg.g_list, bts)}}
    mc = [(g.label, est) for g, (_, _, est) in zip(cfg.g_list, bts) if est is not None]
    for name in ("se", "cutoff", "boundary_cov"):  # the quality of each Monte Carlo B_t
        extra[f"b_t_{name}"] = {label: getattr(est, name) for label, est in mc}
    return _finish(out_dir, manifest, flags, extra=extra)


def cmd_independence(args, out_dir: Path, seed: int, workers: int) -> int:
    raw = _load_config(args.config)
    cfg = _experiment_from_config(raw, seed, workers, replicas=args.replicas)
    if len(cfg.psi_list) < 2:
        raise ConfigError("independence: need at least two test functions")
    n_perm = _positive_int(raw, "n_perm", 200)
    manifest, result = _run("independence", raw, cfg)
    g = cfg.g_list[0]
    last = cfg.n_ladder[-1]
    rows = []
    flags = {}
    observed_by_n = []
    null_se_by_n = []
    for N in cfg.n_ladder:
        cols = result.joint(N, [(p, g) for p in cfg.psi_list])
        rep = independence_report(cols, default_z_tuples(cols.shape[1]), n_perm=n_perm, seed=seed)
        observed_by_n.append(rep.observed)
        null_se_by_n.append(rep.null_se)
        rows.append((N, "all", rep.observed, rep.null_q99, float("nan")))
        for i, p in enumerate(cfg.psi_list):
            for j, q in enumerate(cfg.psi_list[i + 1:], start=i + 1):
                pair_rep = independence_report(
                    cols[:, [i, j]], default_z_tuples(2), n_perm=n_perm, seed=seed + 1
                )
                rhs = independence_rhs(cfg.covariance, cfg.t, p, q, N)
                rows.append((N, f"{p.label}~{q.label}", pair_rep.observed, pair_rep.null_q99, rhs))
                if N == last:
                    flags[f"pair_ok|{p.label}~{q.label}"] = pair_rep.passed
        if N == last:
            flags["joint_ok"] = rep.passed
    if len(cfg.n_ladder) > 1:
        flags["monotone_along_ladder"] = all(
            observed_by_n[k + 1] <= observed_by_n[k] + 2.0 * null_se_by_n[k + 1]
            for k in range(len(observed_by_n) - 1)
        )
    _csv(out_dir, manifest, "independence",
         ("N", "pair", "max_ecf_gap", "null_q99", "rhs_bound"), rows)
    return _finish(out_dir, manifest, flags)


def cmd_fdd(args, out_dir: Path, seed: int, workers: int) -> int:
    """Q(r) boxes and their increments inc(.,.) are the test functions; the
    config's ``psi`` key is ignored."""
    raw = _load_config(args.config)
    n_perm = _positive_int(raw, "n_perm", 200)
    r_grid = _config_value(raw, "r_grid", lambda rs: [float(r) for r in rs], [0.25, 0.5, 1.0])
    if not all(0.0 < r < math.inf for r in r_grid):
        raise ConfigError(f"config.r_grid: entries must be positive and finite, got {r_grid}")
    tol = _positive_float(raw, "covariance_tolerance", 0.15)
    lo, hi = _config_value(
        raw, "base_box", lambda b: [[float(v) for v in b[k]] for k in ("lo", "hi")],
        {"lo": [0.0], "hi": [1.0]},
    )
    if not lo or len(lo) != len(hi):
        raise ConfigError("config.base_box: lo and hi must be nonempty and of one length")
    boxes = {}
    for r in r_grid:
        hi_r = [lo[0] + r * (hi[0] - lo[0])] + hi[1:]
        boxes[r] = TestFunction.box(tuple(lo), tuple(hi_r), label=f"Q({r:g})")
    inc_boxes = []
    prev = lo[0]
    for r in sorted(set(r_grid)):
        edge = lo[0] + r * (hi[0] - lo[0])
        inc_boxes.append(TestFunction.box((prev,) + tuple(lo[1:]), (edge,) + tuple(hi[1:]),
                                          label=f"inc({prev:g},{edge:g})"))
        prev = edge
    cfg = _experiment_from_config(raw, seed, workers, replicas=args.replicas,
                                  psi_list=[*boxes.values(), *inc_boxes])
    bt_replicas = _bt_replicas(raw)
    manifest, result = _run("fdd", raw, cfg)
    g = cfg.g_list[0]
    N = cfg.n_ladder[-1]
    ((b_t, b_src, _),) = _reference_bt(cfg, [g], bt_replicas)
    samples = {r: result.get(N, boxes[r], g).values for r in r_grid}
    inc_cols = result.joint(N, [(b, g) for b in inc_boxes])
    vol = float(np.prod([h - l for l, h in zip(lo[1:], hi[1:])])) * (hi[0] - lo[0])
    rep = fdd_brownian_check(samples, inc_cols, b_t=b_t, base_volume=vol, n_perm=n_perm, seed=seed)
    rows = []
    for i, r in enumerate(rep.r_grid):
        for j, s in enumerate(rep.r_grid):
            rows.append((r, s, rep.cov_emp[i, j], rep.cov_pred[i, j]))
    _csv(out_dir, manifest, "fdd-cov", ("r", "r_prime", "cov_emp", "cov_pred"), rows)
    flags = {
        "cov_matrix_ok": rep.max_rel_dev <= tol,
        "increments_independent": rep.increments.passed,
    }
    return _finish(
        out_dir, manifest, flags,
        extra={"max_rel_dev": rep.max_rel_dev, "b_t": b_t, "b_t_source": b_src},
    )


def cmd_tails(args, out_dir: Path, seed: int, workers: int) -> int:
    raw = _load_config(args.config)
    cfg = _experiment_from_config(raw, seed, workers, replicas=args.replicas)
    manifest, result = _run("tails", raw, cfg)
    psi, g = cfg.psi_list[0], cfg.g_list[0]
    N = cfg.n_ladder[-1]
    values = result.get(N, psi, g).values
    eps = _config_value(raw, "tail_eps", float, 0.5)
    delta = _config_value(raw, "tail_delta", float, 0.5)
    profile = DalangProfile(cfg.covariance)
    sigma_scale = max(cfg.sigma.sigma0, cfg.sigma.lip)
    big, _ = moment_constants(eps, sigma_scale, sigma_scale, cfg.covariance)
    B = big * g.lip * psi.l2_norm() * math.sqrt(cfg.t)
    n_ell = _positive_int(raw, "ell_points", 20)
    sd = float(np.std(values))
    ell_grid = np.geomspace(0.25 * sd, 100.0 * B, n_ell)
    rows = tail_check(
        values, ell_grid, profile, eps=eps, delta=delta, T=cfg.t,
        lip_g=g.lip, psi_norm=psi.l2_norm(), sigma_scale=sigma_scale,
    )
    _csv(out_dir, manifest, "tails",
         ("ell", "empirical", "ci_low", "ci_high", "bound", "violated"),
         [(r.ell, r.empirical, r.ci_low, r.ci_high, r.bound, r.violated) for r in rows])
    flags = {"no_violations": not any(r.violated for r in rows)}
    return _finish(out_dir, manifest, flags, extra={"B": B, "n_ell": n_ell})


def cmd_entropy(args, out_dir: Path, seed: int) -> int:
    from .entropy import (
        BoxClass,
        FiniteMetricSpace,
        ScaleClass,
        ShiftClass,
        chain_construct,
        chaining_empirical_check,
        covering_exponent,
        sandwich_check,
    )

    params = {"check": args.check, "cls": args.cls, "r_grid": args.r_grid,
              "spaces": args.spaces, "points": args.points}
    manifest = RunManifest("entropy", params, seed)
    if args.check in ("sandwich", "chain") and (args.spaces < 1 or args.points < 2):
        raise ConfigError(f"entropy --check {args.check}: need --spaces >= 1 and --points >= 2")
    rng = np.random.default_rng(seed)
    flags = {}
    if args.check == "sandwich":
        rows = []
        for s in range(args.spaces):
            sp = FiniteMetricSpace.from_points(rng.normal(size=(int(rng.integers(2, args.points + 1)), 3)))
            r = float(rng.uniform(0.05, 1.2) * sp.diameter())
            res = sandwich_check(sp, r)
            rows.append((s, r, res.n_2r, res.p_r, res.n_half_r, res.holds))
        _csv(out_dir, manifest, "sandwich", ("space", "r", "n_2r", "p_r", "n_half_r", "holds"), rows)
        flags["sandwich_holds"] = all(row[-1] for row in rows)
    elif args.check == "chain":
        ok_all = True
        for _ in range(args.spaces):
            sp = FiniteMetricSpace.from_points(rng.normal(size=(args.points, 3)))
            chain = chain_construct(sp)
            values = rng.integers(-1000, 1000, size=args.points).astype(float)
            root = chain.nets[0][0]
            for t in range(args.points):
                path = chain.chain_of(t)
                tele = sum(values[b] - values[a] for a, b in zip(path, path[1:]))
                ok_all &= tele == values[t] - values[root]
        flags["telescoping_exact"] = ok_all
    elif args.check == "bound":
        rows = []
        spaces = {
            "two-point": FiniteMetricSpace(dist=np.array([[0.0, 1.0], [1.0, 0.0]])),
            "brownian-grid": FiniteMetricSpace(
                dist=np.sqrt(np.abs(np.subtract.outer(np.linspace(0, 1, 16), np.linspace(0, 1, 16))))
            ),
            "random-planar": FiniteMetricSpace.from_points(rng.normal(size=(10, 2))),
        }
        for name, sp in spaces.items():
            res = chaining_empirical_check(sp, sp.diameter(), n_replicas=1000, seed=seed)
            rows.append((name, res.empirical, res.bound, res.violated))
            flags[f"bound_holds|{name}"] = not res.violated
        _csv(out_dir, manifest, "chaining", ("space", "empirical", "bound", "violated"), rows)
    elif args.check == "exponent":
        classes = {
            "box": (BoxClass(m=1.0, d=1), np.geomspace(0.09, 0.42, 7)),
            "shift": (ShiftClass(n=1.0), np.geomspace(0.02, 0.3, 7)),
            "scale": (ScaleClass(), np.geomspace(0.12, 0.6, 7)),
        }
        chosen = [args.cls] if args.cls else list(classes)
        rows = []
        for name in chosen:
            cls, r_grid = classes[name]
            if args.r_grid:
                try:
                    r_grid = np.array([float(v) for v in args.r_grid.split(",")])
                except ValueError as exc:
                    raise ConfigError(f"--r-grid: radii must be numbers ({exc})") from exc
            fit = covering_exponent(cls, r_grid)
            for r, c in zip(fit.radii, fit.counts):
                rows.append((name, r, c, fit.slope))
            flags[f"slope_ok|{name}"] = abs(fit.slope - cls.expected_exponent) < 0.3
        _csv(out_dir, manifest, "exponent", ("class", "r", "covering_number", "slope"), rows)
    else:
        raise ConfigError(f"entropy: unknown check {args.check!r}")
    return _finish(out_dir, manifest, flags)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS, help="output directory (default ./out)")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=f"master seed (overrides ${SEED_ENV})")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS, help="process workers")
    parser = argparse.ArgumentParser(
        prog="sheclt",
        description="Stochastic-heat-equation occupation-field laboratory",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    def common_measure(p):
        p.add_argument("--kind", required=True, choices=("dirac", "gaussian", "uniform", "exponential"))
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--param", type=float, default=1.0)

    p = sub.add_parser("bounds", help="upsilon (closed form; the trapezoid rule in log s for "
                       "the product kinds in d >= 2), lambda_of and the moment/tail bounds")
    common_measure(p)
    p.add_argument("--lambda", dest="lam", type=float, action="append", default=[])
    p.add_argument("--a", type=float, action="append", default=[])
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--moment-k", type=float, default=2.0)
    p.add_argument("--big-t", type=float, default=1.0)
    p.add_argument("--n-scale", type=float, default=1.0)
    p.add_argument("--sigma0", type=float, default=1.0)
    p.add_argument("--lip-sigma", type=float, default=1.0)
    p.add_argument("--lip-g", type=float, default=1.0)
    p.add_argument("--psi-norm", type=float, default=1.0)
    p.add_argument("--ell", type=float, action="append", default=[])

    p = sub.add_parser("noise-check", help="covariance validation of noise slices")
    common_measure(p)
    p.add_argument("--dx", type=float, default=0.125)
    p.add_argument("--length", type=float, default=16.0)
    p.add_argument("--slices", type=int, default=200)
    p.add_argument("--max-lag", type=int, default=4)

    p = sub.add_parser("solve", help="advance the field and report statistics")
    common_measure(p)
    p.add_argument("--sigma", default="constant:1.0", help="kind:params, e.g. affine:1.0,0.5")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--dx", type=float, default=0.0625)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--L", dest="length", type=float, default=16.0)
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--dump-fields", action="store_true")

    for name, help_text in (
        ("clt", "normality and covariance benchmark"),
        ("independence", "asymptotic-independence checks"),
        ("fdd", "Brownian finite-dimensional distributions"),
        ("tails", "tail-bound non-violation"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=False)
        p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("entropy", help="covering/packing and chaining checks")
    p.add_argument("--check", required=True, choices=("sandwich", "chain", "bound", "exponent"))
    p.add_argument("--class", dest="cls", choices=("box", "shift", "scale"), default=None)
    p.add_argument("--r-grid", default=None)
    p.add_argument("--spaces", type=int, default=200)
    p.add_argument("--points", type=int, default=10)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(os.environ.get(SEED_ENV, "20260810"))
    out_dir = Path(getattr(args, "out_dir", "./out"))
    try:
        workers = getattr(args, "workers", None)
        if workers is None:
            workers = default_workers()
        elif workers < 1:
            raise ConfigError("--workers: must be positive")
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "bounds":
            return cmd_bounds(args, out_dir)
        if args.command == "noise-check":
            return cmd_noise_check(args, out_dir, seed)
        if args.command == "solve":
            return cmd_solve(args, out_dir, seed)
        if args.command == "clt":
            return cmd_clt(args, out_dir, seed, workers)
        if args.command == "independence":
            return cmd_independence(args, out_dir, seed, workers)
        if args.command == "fdd":
            return cmd_fdd(args, out_dir, seed, workers)
        if args.command == "tails":
            return cmd_tails(args, out_dir, seed, workers)
        if args.command == "entropy":
            return cmd_entropy(args, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShecltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
