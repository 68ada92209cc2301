"""The four benchmark workloads: inputs, one round of program calls, checks.

A workload builds its inputs from the benchmark seed, then runs rounds.
Every round attempts the same operations (``OPS``), each a call into the
program through a public entry point, timed by the ``call`` the session
passes in.  ``check`` then verifies the round's outputs against the
references in ``reference.py`` or against properties the method must have;
its time is not part of the measurement.  ``digest`` condenses the outputs
to bytes, so that two passes can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from sheclt import cli, entropy, montecarlo, occupation, solver, spectral
from sheclt.montecarlo import ExperimentConfig
from sheclt.occupation import LipFunction, TestFunction
from sheclt.solver import SigmaFunction
from sheclt.spectral import CovarianceMeasure, DalangProfile, MomentBoundParams


def round_seed(seed: int, rnd: int) -> int:
    """Program seed of round ``rnd``: a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, rnd]).generate_state(1)[0])


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _one(out_dir: Path, pattern: str) -> Path:
    found = sorted(out_dir.glob(pattern))
    if len(found) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out_dir}, found {len(found)}")
    return found[0]


def _files_digest(out_dir: Path) -> bytes:
    """Hash of every output except the manifest, which records wall clock."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if not path.name.startswith("manifest-"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


# Statistical checks use 5 SE: at 4 SE a check fails by chance once in ~10^4,
# and a run makes hundreds of them, so some runs would fail on some seeds.
SE_LIMIT = 5.0


def _mean_within(values: np.ndarray, target: float, k: float = SE_LIMIT) -> tuple[bool, str]:
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1)) / math.sqrt(values.size)
    return abs(mean - target) <= k * se, f"mean {mean:.4g} vs {target:g} (SE {se:.3g})"


class CltWhite:
    """``sheclt clt`` on the criterion-4 config cut to 128 replicas.

    White noise, d = 1, sigma == 1, g = identity, psi = 1_[0,1], N = 64,
    dx = 1/16: 4096 cells x 512 steps per replica, two 64-replica chunks.
    """

    name = "clt-white"
    OPS = ("cli.dispatch[clt]",)
    REPLICAS = 128
    N, DX, T = 64.0, 1.0 / 16.0, 1.0
    RECOMPUTE = (0, 63, 127)  # replicas re-solved in-process by the check

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        self.raw = {
            "covariance": {"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}},
            "sigma": {"kind": "constant", "params": [1.0]},
            "g": [{"kind": "identity"}],
            "psi": [{"label": "unit", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]}],
            "t": self.T, "n_ladder": [self.N], "dx": self.DX, "replicas": self.REPLICAS,
        }
        self.config = out / "clt-white.json"
        self.config.write_text(json.dumps(self.raw))
        self._exact_var = None

    def run_round(self, rnd: int, workers: int, tag: str, call) -> dict:
        out_dir = self.out / f"r{rnd}-{tag}"
        rseed = round_seed(self.seed, rnd)
        code = call(self.OPS[0], cli.dispatch, [
            "--out-dir", str(out_dir), "--seed", str(rseed), "--workers", str(workers),
            "clt", "--config", str(self.config),
        ])
        return {"code": code, "dir": out_dir, "seed": rseed}

    def digest(self, outputs: dict) -> bytes:
        return _files_digest(outputs["dir"])

    def check(self, outputs: dict) -> dict:
        checks = [("exit code 0 or 1", outputs["code"] in (0, 1), f"exit {outputs['code']}")]
        rows = _read_csv(_one(outputs["dir"], "clt-samples-*.csv"))
        values = np.array([float(r["value"]) for r in rows])
        checks.append(("one sample per replica", values.size == self.REPLICAS, f"{values.size} rows"))
        checks.append(("mean within 5 SE of 0", *_mean_within(values, 0.0)))
        exact = self.exact_variance()
        var = float(np.var(values, ddof=1))
        se = exact * math.sqrt(2.0 / (values.size - 1))
        checks.append(("variance within 5 SE of exact discrete variance",
                       abs(var - exact) <= SE_LIMIT * se, f"{var:.4f} vs {exact:.4f} (SE {se:.3f})"))
        # to round-off, not bit for bit: occupation_values sums through BLAS,
        # whose order depends on the batch size (see CHANGES.md, FOUND)
        redo = self.recompute(outputs["seed"])
        err = max(abs(float(rows[r]["value"]) - v) for r, v in zip(self.RECOMPUTE, redo))
        checks.append(("in-process recomputation agrees to round-off", err <= 1e-12,
                       f"replicas {self.RECOMPUTE}, max deviation {err:.2g}"))
        return {self.OPS[0]: checks}

    def _experiment(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            covariance=CovarianceMeasure("dirac", 1, 1.0), sigma=SigmaFunction.constant(1.0),
            g_list=[LipFunction.identity()], psi_list=[TestFunction.box(0.0, 1.0, label="unit")],
            t=self.T, n_ladder=[self.N], dx=self.DX, replicas=self.REPLICAS, seed=seed,
        )

    def exact_variance(self) -> float:
        if self._exact_var is None:
            grid = self._experiment(0).grid_for(self.N)
            steps = round(self.T / grid.dt)
            self._exact_var = ref.exact_white_box_variance(
                grid.n, grid.dx, grid.dt, steps, 1.0, 1.0, self.N, 0.0, 1.0
            )
        return self._exact_var

    def recompute(self, seed: int) -> list[float]:
        cfg = self._experiment(seed)
        grid = cfg.grid_for(self.N)
        fields, _ = solver.solve_batch(grid, cfg.sigma, cfg.covariance, self.T, seed,
                                       list(self.RECOMPUTE), domain=0)
        prepared = occupation.PreparedTestFunction(
            grid, cfg.psi_list[0].scaled(self.N), halo=montecarlo.HALO_FACTOR * math.sqrt(self.T)
        )
        vals = occupation.occupation_values(prepared, cfg.g_list[0](fields), 1.0, self.N)
        return [float(v) for v in vals]


class CltNonlinear2d:
    """The paper's generalisation through the API: d = 2, nonlinear sigma and g.

    Gaussian covariance (s = 1, unit mass), sigma = affine(1, 0.5),
    g in {sin, identity}, psi in {b1 - b2, b1, b2} with b1 = [0,1]^2 and
    b2 = [1,2] x [0,1], N = 8, dx = 1/2, t = 1/2: a 128^2 grid, 8 steps.
    run_experiment (128 replicas, Monte Carlo baseline from 128) is followed
    by one field_run (128 replicas) and one estimate_Bt per observable.
    """

    name = "clt-nonlinear-2d"
    OPS = ("montecarlo.run_experiment", "montecarlo.field_run",
           "occupation.estimate_Bt[sin]", "occupation.estimate_Bt[identity]")
    REPLICAS, BASELINE, BT_REPLICAS = 128, 128, 128
    N, DX, T = 8.0, 0.5, 0.5
    BT_DOMAIN = 20_000  # the domain the CLI's reference B_t solve uses

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.cov = CovarianceMeasure("gaussian", 2, 1.0, 1.0)
        self.sigma = SigmaFunction.affine(1.0, 0.5)
        self.g_list = [LipFunction.sin(), LipFunction.identity()]
        b1 = TestFunction.box((0.0, 0.0), (1.0, 1.0), label="b1")
        b2 = TestFunction.box((1.0, 0.0), (2.0, 1.0), label="b2")
        self.psi_list = [TestFunction([(1.0, (0.0, 0.0), (1.0, 1.0)), (-1.0, (1.0, 0.0), (2.0, 1.0))],
                                      label="b1-b2"), b1, b2]

    def run_round(self, rnd: int, workers: int, tag: str, call) -> dict:
        rseed = round_seed(self.seed, rnd)
        cfg = ExperimentConfig(
            covariance=self.cov, sigma=self.sigma, g_list=self.g_list, psi_list=self.psi_list,
            t=self.T, n_ladder=[self.N], dx=self.DX, replicas=self.REPLICAS, seed=rseed,
            baseline_replicas=self.BASELINE, workers=workers,
        )
        result = call(self.OPS[0], montecarlo.run_experiment, cfg)
        grid = cfg.grid_for(self.N)
        fields = call(self.OPS[1], montecarlo.field_run, self.cov, self.sigma, self.T, grid,
                      self.BT_REPLICAS, rseed, domain=self.BT_DOMAIN)
        bt = {}
        for op, g in zip(self.OPS[2:], self.g_list):
            bt[g.label] = call(op, occupation.estimate_Bt, fields, grid, g, t=self.T, f=self.cov)
        samples = {(p.label, g.label): result.get(self.N, p, g).values
                   for p in self.psi_list for g in self.g_list}
        return {"samples": samples, "fields": fields, "bt": bt, "grid": grid}

    def digest(self, outputs: dict) -> bytes:
        h = hashlib.sha256()
        for key in sorted(outputs["samples"]):
            h.update(repr(key).encode() + outputs["samples"][key].tobytes())
        h.update(outputs["fields"].tobytes())
        for label in sorted(outputs["bt"]):
            est = outputs["bt"][label]
            h.update(repr((label, est.value, est.se, est.boundary_cov)).encode())
        return h.digest()

    def check(self, outputs: dict) -> dict:
        s = outputs["samples"]
        exp_checks = []
        for p in self.psi_list:
            ok, detail = _mean_within(s[(p.label, "identity")], 0.0)
            exp_checks.append((f"identity mean within 5 SE of 0 [{p.label}]", ok, detail))
        for g in self.g_list:
            diff = s[("b1-b2", g.label)] - (s[("b1", g.label)] - s[("b2", g.label)])
            scale = max(1.0, float(np.max(np.abs(s[("b1", g.label)]))))
            err = float(np.max(np.abs(diff)))
            exp_checks.append((f"b1-b2 = b1 - b2 to round-off [{g.label}]",
                               err <= 1e-12 * scale, f"max deviation {err:.3g}"))
        fields = outputs["fields"]
        per_rep = fields.reshape(fields.shape[0], -1).mean(axis=1)
        ok, detail = _mean_within(per_rep, 1.0)
        shape = (self.BT_REPLICAS,) + outputs["grid"].shape
        field_checks = [("field shape", fields.shape == shape,
                         str(fields.shape)),
                        ("E u = 1 within 5 SE", ok, detail)]
        ident = outputs["bt"]["identity"]
        bound = 1.0**2 * self.T * self.cov.mass
        sin = outputs["bt"]["sin"]
        return {
            self.OPS[0]: exp_checks,
            self.OPS[1]: field_checks,
            self.OPS[2]: [("finite estimate", math.isfinite(sin.value) and sin.se > 0.0,
                           f"{sin.value:.4g} (SE {sin.se:.3g})")],
            self.OPS[3]: [("B_t(identity) >= a^2 t f(R^2) - 3 SE",
                           ident.value >= bound - 3.0 * ident.se,
                           f"{ident.value:.4g} vs {bound:g} (SE {ident.se:.3g})")],
        }


class Independence:
    """``sheclt independence``: three unit boxes at 0, 2, 4 over N in {16, 32}.

    White noise, sigma == 1, dx = 1/4, 256 replicas, 200 permutations: the
    ECF permutation null (~45,000 ecf_gap calls) dominates the round.
    """

    name = "independence"
    OPS = ("cli.dispatch[independence]",)
    REPLICAS, PERMUTATIONS = 256, 200
    LADDER = (16.0, 32.0)
    LABELS = ("box0", "box2", "box4")

    def __init__(self, seed: int, out: Path):
        self.seed, self.out = seed, out
        raw = {
            "covariance": {"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}},
            "sigma": {"kind": "constant", "params": [1.0]},
            "g": [{"kind": "identity"}],
            "psi": [{"label": f"box{lo}", "boxes": [{"amp": 1.0, "lo": [float(lo)],
                                                      "hi": [float(lo + 1)]}]}
                    for lo in (0, 2, 4)],
            "t": 1.0, "n_ladder": list(self.LADDER), "dx": 0.25,
            "replicas": self.REPLICAS, "n_perm": self.PERMUTATIONS,
        }
        self.config = out / "independence.json"
        self.config.write_text(json.dumps(raw))

    def run_round(self, rnd: int, workers: int, tag: str, call) -> dict:
        out_dir = self.out / f"r{rnd}-{tag}"
        rseed = round_seed(self.seed, rnd)
        code = call(self.OPS[0], cli.dispatch, [
            "--out-dir", str(out_dir), "--seed", str(rseed), "--workers", str(workers),
            "independence", "--config", str(self.config),
        ])
        return {"code": code, "dir": out_dir, "seed": rseed}

    def digest(self, outputs: dict) -> bytes:
        return _files_digest(outputs["dir"])

    def check(self, outputs: dict) -> dict:
        checks = [("exit code 0 or 1", outputs["code"] in (0, 1), f"exit {outputs['code']}")]
        rows = _read_csv(_one(outputs["dir"], "independence-*.csv"))
        pairs = {f"{a}~{b}" for i, a in enumerate(self.LABELS) for b in self.LABELS[i + 1:]}
        expected = {(n, p) for n in self.LADDER for p in pairs | {"all"}}
        got = {(float(r["N"]), r["pair"]) for r in rows}
        checks.append(("one row per N and pair", got == expected and len(rows) == len(expected),
                       f"{len(rows)} rows"))
        gaps_ok = all(0.0 <= float(r["max_ecf_gap"]) <= 2.0 and 0.0 < float(r["null_q99"]) <= 2.0
                      for r in rows)
        checks.append(("ECF gaps and null quantiles in range", gaps_ok, ""))
        rhs_ok = all(math.isfinite(float(r["rhs_bound"])) and float(r["rhs_bound"]) >= 0.0
                     for r in rows if r["pair"] != "all")
        checks.append(("independence bound finite and nonnegative", rhs_ok, ""))
        flags = json.loads(_one(outputs["dir"], "independence-summary-*.json").read_text())["flags"]
        want = {"joint_ok", "monotone_along_ladder"} | {f"pair_ok|{p}" for p in pairs}
        checks.append(("summary reports every flag", set(flags) == want, ",".join(sorted(flags))))
        checks.extend(self.planted_checks(outputs["seed"]))
        return {self.OPS[0]: checks}

    def planted_checks(self, seed: int) -> list:
        """The program's ECF test must reject built-in dependence, and its gap
        must match the numpy reference."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(self.REPLICAS)
        cols = np.stack([x, x + 0.3 * rng.standard_normal(self.REPLICAS)], axis=1)
        rep = montecarlo.independence_report(cols, montecarlo.default_z_tuples(2), n_perm=50,
                                             seed=seed)
        z_list = montecarlo.default_z_tuples(2) + montecarlo.default_z_tuples(3)
        cols3 = np.column_stack([cols, rng.standard_normal(self.REPLICAS)])
        worst = max(
            abs(montecarlo.ecf_gap(cols if z.size == 2 else cols3, z)
                - ref.ecf_gap_reference(cols if z.size == 2 else cols3, z))
            for z in z_list
        )
        return [
            ("planted dependence rejected", not rep.passed,
             f"observed {rep.observed:.3g} vs q99 {rep.null_q99:.3g}"),
            ("ecf_gap matches numpy reference to 1e-12", worst <= 1e-12, f"max {worst:.2g}"),
        ]


class BoundsEntropy:
    """The analytic and entropy layers, no simulation.

    upsilon over the four 1-d kinds and 16 lambdas; lambda_of round trips
    for the 1-d kinds, gaussian d = 2 and exponential d = 2; the resolvent
    identity, log moment bound and tail bound; the box/shift/scale covering
    exponents; sandwich checks on 100 random spaces and chain telescoping on
    40.
    """

    name = "bounds-entropy"
    OPS = ("spectral.upsilon", "spectral.lambda_of", "spectral.resolvent_identity_check",
           "spectral.moment_and_tail_bounds", "entropy.covering_exponent[box]",
           "entropy.covering_exponent[shift]", "entropy.covering_exponent[scale]",
           "entropy.sandwich_check", "entropy.chain_construct")
    KINDS = ("dirac", "exponential", "gaussian", "uniform")
    ROUND_TRIPS = (("dirac", 1), ("exponential", 1), ("gaussian", 1), ("uniform", 1),
                   ("gaussian", 2), ("exponential", 2))
    CLASSES = {  # name -> (class, radii, expected slope)
        "box": (lambda: entropy.BoxClass(m=1.0, d=1), np.geomspace(0.09, 0.42, 7), -2.0),
        "shift": (lambda: entropy.ShiftClass(n=1.0), np.geomspace(0.02, 0.3, 7), -1.0),
        "scale": (lambda: entropy.ScaleClass(), np.geomspace(0.16, 0.6, 7), -2.0),
    }
    # (mass, shape parameter) per kind, fixed so that the quadrature work per
    # round does not depend on the seed; the lambdas and spaces do
    PARAMS = {"dirac": (1.3, 1.0), "exponential": (0.8, 1.7), "gaussian": (1.1, 0.6),
              "uniform": (0.9, 1.4)}
    SANDWICH_SPACES, CHAIN_SPACES, CHAIN_POINTS = 100, 40, 10

    def __init__(self, seed: int, out: Path):
        self.seed = seed

    def inputs(self, rnd: int) -> dict:
        rng = np.random.default_rng([self.seed, rnd])
        sandwich = []
        for _ in range(self.SANDWICH_SPACES):
            pts = rng.normal(size=(int(rng.integers(2, 11)), 3))
            sandwich.append((pts, float(rng.uniform(0.05, 1.2))))
        chain = [(rng.normal(size=(self.CHAIN_POINTS, 3)),
                  rng.integers(-1000, 1000, size=self.CHAIN_POINTS).astype(float))
                 for _ in range(self.CHAIN_SPACES)]
        return {
            "lams": np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 16)),
            "lam0": float(np.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
            "moment": (float(rng.uniform(0.2, 0.8)), float(rng.uniform(2.0, 6.0)),
                       float(rng.uniform(1.0, 16.0)), float(rng.uniform(0.5, 2.0))),
            "sandwich": sandwich,
            "chain": chain,
        }

    def profile(self, kind, d=1):
        mass, param = self.PARAMS[kind]
        return DalangProfile(CovarianceMeasure(kind, d, mass, param))

    def run_round(self, rnd: int, workers: int, tag: str, call) -> dict:
        inp = self.inputs(rnd)
        lams, lam0 = inp["lams"], inp["lam0"]
        profiles = {k: self.profile(k) for k in self.KINDS}
        out = {"inputs": inp}
        out["upsilon"] = call(self.OPS[0], lambda: {
            k: [spectral.upsilon(profiles[k], lam) for lam in lams] for k in self.KINDS})
        trips = {(k, d): self.profile(k, d) for k, d in self.ROUND_TRIPS}

        def round_trips():
            res = {}
            for key, prof in trips.items():
                a = spectral.upsilon(prof, lam0)
                res[key] = (a, spectral.lambda_of(prof, a))
            return res

        out["lambda_of"] = call(self.OPS[1], round_trips)
        out["resolvent"] = call(self.OPS[2], lambda: {
            k: spectral.resolvent_identity_check(profiles[k], lam0) for k in self.KINDS})
        eps, k_mom, n_scale, big_t = inp["moment"]
        mb = MomentBoundParams(eps=eps, k=k_mom, N=n_scale, T=big_t, sigma0=1.0, lip_sigma=0.5,
                               lip_g=1.0, psi_norm=1.0)
        ells = np.geomspace(2.0, 1e4, 6)
        out["bounds"] = call(self.OPS[3], lambda: (
            spectral.log_moment_bound(mb, profiles["dirac"]),
            [spectral.tail_bound(ell, eps, 0.5, big_t, 1.0, profiles["dirac"], 1.0) for ell in ells],
        ))
        out["bounds_args"] = (mb, ells)
        for op, (name, (make, radii, _)) in zip(self.OPS[4:7], self.CLASSES.items()):
            out[name] = call(op, entropy.covering_exponent, make(), radii)

        def sandwiches():
            res = []
            for pts, scale in inp["sandwich"]:
                space = entropy.FiniteMetricSpace.from_points(pts)
                res.append(entropy.sandwich_check(space, scale * space.diameter()))
            return res

        out["sandwich"] = call(self.OPS[7], sandwiches)
        out["chain"] = call(self.OPS[8], lambda: [
            entropy.chain_construct(entropy.FiniteMetricSpace.from_points(pts))
            for pts, _ in inp["chain"]])
        return out

    def digest(self, outputs: dict) -> bytes:
        h = hashlib.sha256()
        h.update(repr(outputs["upsilon"]).encode())
        h.update(repr(sorted(outputs["lambda_of"].items())).encode())
        h.update(repr(outputs["resolvent"]).encode() + repr(outputs["bounds"]).encode())
        for name in self.CLASSES:
            h.update(outputs[name].counts.tobytes() + repr(outputs[name].slope).encode())
        h.update(repr([(r.n_2r, r.p_r, r.n_half_r) for r in outputs["sandwich"]]).encode())
        h.update(repr([c.nets for c in outputs["chain"]]).encode())
        return h.digest()

    def check(self, outputs: dict) -> dict:
        inp = outputs["inputs"]
        params, lam0 = self.PARAMS, inp["lam0"]
        worst = max(abs(v / ref.upsilon_closed_1d(k, *params[k], lam) - 1.0)
                    for k in self.KINDS for v, lam in zip(outputs["upsilon"][k], inp["lams"]))
        checks = {self.OPS[0]: [("upsilon matches closed forms to 1e-10", worst <= 1e-10,
                                 f"max rel {worst:.2g}")]}
        trips = outputs["lambda_of"]
        worst = max(abs(lam / lam0 - 1.0) for _, lam in trips.values())
        a_dirac = trips[("dirac", 1)][0]
        closed = ref.lambda_closed_dirac(params["dirac"][0], a_dirac)
        checks[self.OPS[1]] = [
            ("lambda_of(upsilon(lam)) = lam to 1e-8", worst <= 1e-8, f"max rel {worst:.2g}"),
            ("dirac lambda_of matches closed-form inverse", abs(trips[("dirac", 1)][1] / closed - 1.0) <= 1e-8,
             f"{trips[('dirac', 1)][1]:.10g} vs {closed:.10g}"),
        ]
        res_worst = max(abs(lhs / rhs - 1.0) for lhs, rhs in outputs["resolvent"].values())
        closed_worst = max(abs(rhs / ref.upsilon_closed_1d(k, *params[k], lam0) - 1.0)
                           for k, (_, rhs) in outputs["resolvent"].items())
        checks[self.OPS[2]] = [
            ("time and spectral routes agree to 1e-8", res_worst <= 1e-8, f"max rel {res_worst:.2g}"),
            ("spectral route matches closed form to 1e-10", closed_worst <= 1e-10,
             f"max rel {closed_worst:.2g}"),
        ]
        checks[self.OPS[3]] = self._bound_checks(outputs, params)
        for op, (name, (_, _, expected)) in zip(self.OPS[4:7], self.CLASSES.items()):
            slope = outputs[name].slope
            checks[op] = [(f"{name} covering slope within 0.3 of {expected:g}",
                           abs(slope - expected) < 0.3, f"slope {slope:.3f}")]
        holds = [r.holds and r.exact for r in outputs["sandwich"]]
        checks[self.OPS[7]] = [("every exact sandwich N(2r) <= P(r) <= N(r/2) holds", all(holds),
                                f"{sum(holds)}/{len(holds)}")]
        tele_ok = True
        for chain, (_, values) in zip(outputs["chain"], inp["chain"]):
            root = chain.nets[0][0]
            for t in range(self.CHAIN_POINTS):
                path = chain.chain_of(t)
                tele = sum(values[b] - values[a] for a, b in zip(path, path[1:]))
                tele_ok &= path[-1] == t and tele == values[t] - values[root]
        checks[self.OPS[8]] = [("every chain telescopes exactly", bool(tele_ok), "")]
        return checks

    def _bound_checks(self, outputs, params) -> list:
        """Closed forms of the moment and tail bounds for the dirac kind, d = 1."""
        mass = params["dirac"][0]
        mb, ells = outputs["bounds_args"]
        log_mb, tails = outputs["bounds"]
        s = max(mb.sigma0, mb.lip_sigma)
        big = 16.0 * s * math.sqrt(mass) / mb.eps**1.5
        small = (1.0 - mb.eps) ** 2 / (2.0 ** 3.5 * s * s)
        lam = ref.lambda_closed_dirac(mass, small / mb.k)
        expect = (math.log(big) + 0.5 * math.log(mb.T * mb.k) - 0.5 * math.log(mb.N)
                  + 2.0 * mb.T * lam + math.log(mb.lip_g * mb.psi_norm))
        small_t = (1.0 - mb.eps) ** 2 / (2.0 ** 3.5)
        worst = 0.0
        for ell, got in zip(ells, tails):
            logratio = math.log(ell)
            ups = ref.upsilon_closed_1d("dirac", mass, 1.0, (1.0 - 0.5) / (2.0 * mb.T) * logratio)
            want = min(1.0, math.exp(-small_t * 0.5 * logratio / (2.0 * ups)))
            worst = max(worst, abs(got - want) / want)
        return [
            ("log moment bound matches closed form", abs(log_mb / expect - 1.0) <= 1e-8,
             f"{log_mb:.10g} vs {expect:.10g}"),
            ("tail bound matches closed form", worst <= 1e-8, f"max rel {worst:.2g}"),
        ]


WORKLOADS = {w.name: w for w in (CltWhite, CltNonlinear2d, Independence, BoundsEntropy)}
