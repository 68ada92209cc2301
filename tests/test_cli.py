"""CLI dispatch, output formats, manifests, and byte reproducibility."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheclt.cli import dispatch
from sheclt.io import load_array, save_array, write_csv

NAN, INF = float("nan"), float("inf")


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def out_files(out_dir, prefix, suffix):
    return sorted(p for p in Path(out_dir).iterdir() if p.name.startswith(prefix) and p.name.endswith(suffix))


# what turns the tiny clt config into one each experiment command accepts
_TWO_BOXES = [{"label": "a", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]},
              {"label": "b", "boxes": [{"amp": 1.0, "lo": [2.0], "hi": [3.0]}]}]
EXPERIMENT_OVERRIDES = {
    "clt": {},
    "independence": {"psi": _TWO_BOXES, "n_ladder": [4, 8], "n_perm": 40},
    "fdd": {"r_grid": [0.5, 1.0], "covariance_tolerance": 0.9, "n_perm": 40},
    "tails": {"ell_points": 12},
}


def tiny_clt_config(tmp_path, **overrides):
    config = {
        "covariance": {"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}},
        "sigma": {"kind": "constant", "params": [1.0]},
        "g": [{"kind": "identity"}],
        "psi": [{"label": "unit", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]}],
        "t": 0.25,
        "n_ladder": [4],
        "dx": 0.25,
        "replicas": 300,
        "seed": 7,
        "variance_tolerance": 0.5,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestIo:
    def test_array_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 8))
        path = tmp_path / "f.bin"
        save_array(path, arr, meta={"t": 1.0})
        back, meta = load_array(path)
        assert np.array_equal(back, arr)
        assert meta == {"t": 1.0}

    def test_csv_formatting(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b"), [(1.0 / 3.0, True), (2, "x")])
        header, rows = read_rows(path)
        assert header == ["a", "b"]
        assert rows[0][0] == "%.17g" % (1.0 / 3.0)
        assert rows[0][1] == "true"


class TestDispatch:
    def test_no_arguments_usage(self):
        assert dispatch([]) == 2

    def test_unknown_flag(self):
        assert dispatch(["bounds", "--nope"]) == 2

    def test_bounds_dirac_reference_row(self, tmp_path):
        out = tmp_path / "out"
        code = dispatch(
            ["--out-dir", str(out), "bounds", "--kind", "dirac", "--d", "1",
             "--lambda", "0.5"]
        )
        assert code == 0
        (csv_path,) = out_files(out, "bounds-", ".csv")
        header, rows = read_rows(csv_path)
        ups = [r for r in rows if r[0] == "upsilon"]
        assert float(ups[0][1]) == 0.5
        assert abs(float(ups[0][2]) - 1.0) < 1e-6
        manifests = out_files(out, "manifest-", ".json")
        assert len(manifests) == 1
        record = json.loads(manifests[0].read_text())
        assert record["outputs"] and record["version"]

    def test_bounds_uniform_d2_is_warning_free(self, tmp_path):
        import warnings

        from scipy.integrate import IntegrationWarning

        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            code = dispatch(["--out-dir", str(tmp_path / "out"), "bounds", "--kind", "uniform",
                             "--d", "2", "--a", "2.0"])
        assert code == 0

    def test_noise_check_smoke(self, tmp_path):
        out = tmp_path / "out"
        code = dispatch(
            ["--out-dir", str(out), "--seed", "3", "noise-check", "--kind", "dirac",
             "--slices", "150", "--max-lag", "2", "--dx", "0.25", "--length", "8"]
        )
        assert code == 0
        summary = json.loads(out_files(out, "noise-check-summary", ".json")[0].read_text())
        assert summary["pass"]

    def test_noise_check_correlated_d2_defaults_pass(self, tmp_path):
        # neighbouring cells of the gaussian field are correlated: the
        # standard errors must count that, or correct noise fails its flags
        out = tmp_path / "out"
        code = dispatch(["--out-dir", str(out), "--seed", "1", "noise-check", "--kind", "gaussian",
                         "--d", "2"])
        assert code == 0

    def test_solve_with_dump(self, tmp_path):
        out = tmp_path / "out"
        code = dispatch(
            ["--out-dir", str(out), "--seed", "4", "solve", "--kind", "dirac",
             "--sigma", "linear:1.0", "--t", "0.25", "--dx", "0.25", "--L", "8",
             "--replicas", "60", "--dump-fields"]
        )
        assert code == 0
        (dump,) = out_files(out, "fields-", ".bin")
        arr, meta = load_array(dump)
        assert arr.shape == (60, 32)
        assert meta["sigma"] == "linear:1.0"

    def test_clt_pass_and_exit_codes(self, tmp_path):
        out = tmp_path / "out"
        cfg = tiny_clt_config(tmp_path)
        code = dispatch(["--out-dir", str(out), "--seed", "7", "clt", "--config", str(cfg)])
        assert code == 0
        summary = json.loads(out_files(out, "clt-summary", ".json")[0].read_text())
        assert summary["pass"]
        # the exact B_t has no Monte Carlo quality to report
        assert summary["values"]["b_t_source"] == {"identity": "exact"}
        assert all(summary["values"][k] == {} for k in ("b_t_se", "b_t_cutoff", "b_t_boundary_cov"))
        # absurd tolerance forces an acceptance failure: exit code 1
        cfg_bad = tiny_clt_config(tmp_path, variance_tolerance=1e-9)
        out_bad = tmp_path / "out-bad"
        assert dispatch(["--out-dir", str(out_bad), "--seed", "7", "clt", "--config", str(cfg_bad)]) == 1

    def test_clt_compares_each_observable_with_its_own_bt(self, tmp_path):
        from sheclt.montecarlo import ExperimentConfig, field_run
        from sheclt.occupation import LipFunction, TestFunction, estimate_Bt
        from sheclt.solver import SigmaFunction
        from sheclt.spectral import CovarianceMeasure

        cfg = tiny_clt_config(
            tmp_path, sigma={"kind": "affine", "params": [1.0, 0.5]},
            g=[{"kind": "sin"}, {"kind": "identity"}], replicas=50,
            baseline_replicas=20, bt_replicas=100,
        )
        out = tmp_path / "out"
        code = dispatch(["--out-dir", str(out), "--seed", "7", "--workers", "1",
                         "clt", "--config", str(cfg)])
        assert code in (0, 1)
        header, rows = read_rows(out_files(out, "clt-report", ".csv")[0])
        predicted = {r[header.index("g")]: float(r[header.index("predicted_variance")]) for r in rows}
        # the reference B_t solve: bt_replicas fields in domain 20000 on the first rung's grid
        white, sigma = CovarianceMeasure("dirac", 1, 1.0), SigmaFunction.affine(1.0, 0.5)
        unit = TestFunction.box(0.0, 1.0)
        grid = ExperimentConfig(
            covariance=white, sigma=sigma, g_list=[LipFunction.identity()], psi_list=[unit],
            t=0.25, n_ladder=[4.0], dx=0.25, replicas=50, seed=7,
        ).grid_for(4.0)
        fields = field_run(white, sigma, 0.25, grid, 100, 7, domain=20_000)
        values = json.loads(out_files(out, "clt-summary", ".json")[0].read_text())["values"]
        for g in (LipFunction.sin(), LipFunction.identity()):
            est = estimate_Bt(fields, grid, g, t=0.25, f=white)
            assert predicted[g.label] == unit.l2_inner(unit) * est.value
            # each Monte Carlo B_t reports its quality, with the cutoff it used
            assert values["b_t_source"][g.label] == "mc"
            assert (values["b_t_se"][g.label], values["b_t_cutoff"][g.label],
                    values["b_t_boundary_cov"][g.label]) == (est.se, est.cutoff, est.boundary_cov)
            assert 0.0 < values["b_t_cutoff"][g.label] <= grid.length / 4.0
        assert predicted["sin"] != predicted["identity"]

    def test_clt_flags_the_joint_covariance_of_overlapping_pairs(self, tmp_path):
        # one cov_ok flag per overlapping pair: |Cov(X_a, X_b) / (<a, b> B_t) - 1| <= 0.15
        psi = [{"label": label, "boxes": [{"amp": 1.0, "lo": [lo], "hi": [lo + 1.0]}]}
               for label, lo in (("a", 0.0), ("b", 0.5), ("c", 3.0))]
        out = tmp_path / "out"
        cfg = tiny_clt_config(tmp_path, psi=psi, replicas=200)
        assert dispatch(["--out-dir", str(out), "--seed", "7", "--workers", "1",
                         "clt", "--config", str(cfg)]) in (0, 1)
        summary = json.loads(out_files(out, "clt-summary", ".json")[0].read_text())
        assert [k for k in summary["flags"] if k.startswith("cov_ok")] == ["cov_ok|N=4|a~b"]
        header, rows = read_rows(out_files(out, "clt-samples", ".csv")[0])
        cols = {label: np.array([float(r[header.index("value")]) for r in rows
                                 if r[header.index("psi")] == label]) for label in "ab"}
        ratio = np.cov(cols["a"], cols["b"])[0, 1] / (0.5 * summary["values"]["b_t"]["identity"])
        assert summary["flags"]["cov_ok|N=4|a~b"] == (abs(ratio - 1.0) <= 0.15)

    def test_experiment_manifest_records_grids(self, tmp_path):
        from sheclt.montecarlo import ExperimentConfig
        from sheclt.occupation import LipFunction, TestFunction
        from sheclt.solver import SigmaFunction
        from sheclt.spectral import CovarianceMeasure

        out = tmp_path / "out"
        cfg = tiny_clt_config(tmp_path, n_ladder=[4, 6], replicas=60)
        assert dispatch(["--out-dir", str(out), "--seed", "7", "--workers", "1",
                         "clt", "--config", str(cfg)]) in (0, 1)
        record = json.loads(out_files(out, "manifest-", ".json")[0].read_text())
        expected = ExperimentConfig(
            covariance=CovarianceMeasure("dirac", 1, 1.0), sigma=SigmaFunction.constant(1.0),
            g_list=[LipFunction.identity()], psi_list=[TestFunction.box(0.0, 1.0)],
            t=0.25, n_ladder=[4.0, 6.0], dx=0.25, replicas=60, seed=7,
        )
        assert [r["N"] for r in record["grids"]] == [4.0, 6.0]
        for rec in record["grids"]:
            grid = expected.grid_for(rec["N"])
            assert rec == {"N": rec["N"], "n": grid.n, "L": grid.length, "dt": grid.dt,
                           "steps": round(0.25 / grid.dt), "cells_per_replica": grid.n**grid.d}
        # 4 + 8 sqrt(1/4) = 8 needs more than 32 cells of 1/4: 36 = 2^2 * 3^2
        assert record["grids"][0]["n"] == 36

    def test_non_power_of_two_cell_counts_run(self, tmp_path):
        # --L 5 --dx 0.25: 20 = 2^2 * 5 cells per axis
        out = tmp_path / "out"
        assert dispatch(["--out-dir", str(out), "--seed", "4", "solve", "--kind", "gaussian",
                         "--sigma", "affine:1.0,0.5", "--t", "0.25", "--dx", "0.25", "--L", "5",
                         "--replicas", "20", "--dump-fields"]) == 0
        arr, _ = load_array(out_files(out, "fields-", ".bin")[0])
        assert arr.shape == (20, 20)
        assert dispatch(["--out-dir", str(out), "--seed", "3", "noise-check", "--kind", "gaussian",
                         "--slices", "150", "--max-lag", "2", "--dx", "0.25", "--length", "5"]) == 0

    @pytest.mark.parametrize("command", ["solve", "noise-check"])
    def test_cell_count_with_prime_factor_above_five_is_usage_error(self, tmp_path, capsys, command):
        # --L 3.5 --dx 0.25: 14 = 2 * 7 cells per axis
        length = "--L" if command == "solve" else "--length"
        assert dispatch(["--out-dir", str(tmp_path / "o"), command, "--kind", "dirac",
                         "--dx", "0.25", length, "3.5"]) == 2
        err = capsys.readouterr().err
        assert "config error: grid.n" in err and "2, 3 and 5, got 14" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "noise-check"])
    def test_length_not_whole_cells_is_usage_error(self, tmp_path, capsys, command):
        # --L 5.1 --dx 0.25 is 20.4 cells; it used to run silently on L = 5
        length = "--L" if command == "solve" else "--length"
        out = tmp_path / "o"
        assert dispatch(["--out-dir", str(out), command, "--kind", "dirac",
                         "--dx", "0.25", length, "5.1"]) == 2
        err = capsys.readouterr().err
        assert "config error: --L/--length: 5.1" in err
        assert "nearest whole-cell length is 5" in err and "Traceback" not in err
        assert not list(out.glob("manifest-*.json"))
        # a cell count that overflows used to escape as an OverflowError
        assert dispatch(["--out-dir", str(out), command, "--kind", "dirac",
                         "--dx", "1e-320", length, "16"]) == 2
        assert "config error: --dx" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "clt"]) == 2
        assert dispatch(["--out-dir", str(tmp_path / "o"), "clt", "--config", "/nope.json"]) == 2

    def test_malformed_sigma_flag_is_usage_error(self, tmp_path):
        for sigma in ("constant", "affine:1", "affine:1,abc", "constant:nan", "affine:1,inf"):
            assert dispatch(["--out-dir", str(tmp_path / "o"), "solve", "--kind", "dirac",
                             "--sigma", sigma, "--replicas", "2"]) == 2

    def test_zero_dt_is_usage_error(self, tmp_path):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "solve", "--kind", "dirac",
                         "--dt", "0", "--replicas", "2"]) == 2

    def test_zero_dx_solve_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "solve", "--kind", "dirac",
                         "--dx", "0", "--replicas", "2"]) == 2
        assert "--dx" in capsys.readouterr().err

    def test_zero_dx_noise_check_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "noise-check", "--kind", "dirac",
                         "--dx", "0"]) == 2
        assert "--dx" in capsys.readouterr().err

    def test_zero_replicas_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "solve", "--kind", "dirac",
                         "--replicas", "0", "--L", "4", "--dx", "0.25", "--t", "0.25"]) == 2
        assert "replicas" in capsys.readouterr().err

    def test_dalang_violation_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "bounds", "--kind", "dirac",
                         "--d", "2", "--lambda", "1.0"]) == 2
        err = capsys.readouterr().err
        assert "covariance.kind" in err and "covariance.dimension" in err

    def test_non_numeric_r_grid_is_usage_error(self, tmp_path):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "entropy", "--check", "exponent",
                         "--r-grid", "0.1,abc"]) == 2

    def test_bad_n_perm_is_usage_error(self, tmp_path, capsys):
        psi = [{"label": "a", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]},
               {"label": "b", "boxes": [{"amp": 1.0, "lo": [2.0], "hi": [3.0]}]}]
        for n_perm in (0, -1, "abc"):
            cfg = tiny_clt_config(tmp_path, psi=psi, n_perm=n_perm, replicas=4)
            for cmd in ("independence", "fdd"):
                capsys.readouterr()
                assert dispatch(["--out-dir", str(tmp_path / "o"), cmd, "--config", str(cfg)]) == 2
                assert "config.n_perm" in capsys.readouterr().err

    def test_nan_length_solve_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "solve", "--kind", "dirac",
                         "--L", "nan", "--replicas", "1"]) == 2
        assert "--L" in capsys.readouterr().err

    def test_infinite_length_noise_check_is_usage_error(self, tmp_path, capsys):
        assert dispatch(["--out-dir", str(tmp_path / "o"), "noise-check", "--kind", "dirac",
                         "--length", "inf"]) == 2
        assert "--length" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ({"t": "abc"}, "config.t"),
        ({"n_ladder": 5}, "config.n_ladder"),
        ({"replicas": "x"}, "config.replicas"),
        ({"dx": None}, "config.dx"),
        ({"baseline_replicas": "q"}, "config.baseline_replicas"),
        ({"g": [{"kind": "tabulated", "xs": [0.0, 1.0]}]}, "g.ys"),
        ({"g": [{"kind": "tabulated", "xs": [0.0, 1.0], "ys": [0.0, 1.0, 5.0]}]}, "lip.tabulated"),
        ({"g": [{"kind": "tabulated", "xs": [0.0, INF], "ys": [0.0, 1.0]}]}, "lip.tabulated"),
        ({"g": [{"kind": "scaled", "base": {"kind": "sin"}, "a": 1.0, "b": INF}]}, "lip.scaled"),
        ({"g": [{"kind": "shifted", "base": {"kind": "sin"}, "a": NAN}]}, "lip.shifted"),
        ({"covariance": {"kind": "gaussian", "params": {"param": NAN}}}, "covariance.param"),
        ({"covariance": {"kind": "dirac", "dimension": INF}}, "covariance"),
    ])
    def test_bad_clt_config_value_is_usage_error(self, tmp_path, capsys, override, key):
        cfg = tiny_clt_config(tmp_path, **override)
        assert dispatch(["--out-dir", str(tmp_path / "o"), "clt", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ({"psi": [{"label": "x", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [hi]}]}
                  for hi in (1.0, 2.0)]}, "config.psi"),
        ({"g": [{"kind": "tabulated", "xs": [0.0, 1.0], "ys": [0.0, b]} for b in (1.0, 2.0)]},
         "config.g"),
    ])
    def test_duplicate_labels_are_usage_errors(self, tmp_path, capsys, override, key):
        # samples, baselines and flags are keyed by label: two alike would collide
        cfg = tiny_clt_config(tmp_path, replicas=100, **override)
        assert dispatch(["--out-dir", str(tmp_path / "o"), "clt", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, override", [
        ("clt", {"t": "inf"}),
        ("clt", {"t": NAN}),
        ("clt", {"n_ladder": [NAN]}),
        ("clt", {"n_ladder": [INF]}),
        ("clt", {"dx": "inf"}),
        ("tails", {"dx": "inf"}),
        ("clt", {"psi": [{"boxes": [{"amp": 1.0, "lo": [NAN], "hi": [1.0]}]}]}),
        ("tails", {"psi": [{"boxes": [{"amp": 1.0, "lo": [0.0], "hi": [INF]}]}]}),
        ("clt", {"psi": [{"boxes": [{"amp": INF, "lo": [0.0], "hi": [1.0]}]}]}),
        ("tails", {"ell_points": -1}),
        ("tails", {"ell_points": 0}),
        ("fdd", {"base_box": {"lo": [], "hi": []}}),
        ("clt", {"variance_tolerance": NAN}),
        ("clt", {"variance_tolerance": -1.0}),
        ("clt", {"covariance_tolerance": 0.0}),
        ("fdd", {"covariance_tolerance": NAN}),
        ("fdd", {"covariance_tolerance": -0.5}),
        ("fdd", {"r_grid": [0.0, 1.0]}),
        ("fdd", {"r_grid": [0.5, NAN]}),
    ])
    def test_out_of_range_config_number_is_usage_error(self, tmp_path, capsys, cmd, override):
        cfg = tiny_clt_config(tmp_path, replicas=60, **override)
        assert dispatch(["--out-dir", str(tmp_path / "o"), "--workers", "1",
                         cmd, "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, override, flags, key", [
        ("clt", {}, ["--replicas", "40"], "replicas"),
        ("clt", {"g": [{"kind": "sin"}], "bt_replicas": 50}, [], "config.bt_replicas"),
        ("fdd", {**EXPERIMENT_OVERRIDES["fdd"], "sigma": {"kind": "affine", "params": [1.0, 0.5]},
                 "bt_replicas": 99}, [], "config.bt_replicas"),
    ])
    def test_statistics_minimum_checked_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       cmd, override, flags, key):
        # a replica count the KS check or estimate_Bt would reject after the
        # whole experiment is rejected before any replica is solved
        from sheclt import cli

        def no_solve(cfg):
            raise AssertionError("run_experiment called")

        monkeypatch.setattr(cli, "run_experiment", no_solve)
        cfg = tiny_clt_config(tmp_path, **override)
        out = tmp_path / "o"
        assert dispatch(["--out-dir", str(out), "--workers", "1", cmd, "--config", str(cfg),
                         *flags]) == 2
        assert key in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("flags, env", [
        (["--workers", "0"], None),
        (["--workers", "-3"], None),
        ([], "0"),
        ([], "-2"),
    ])
    def test_nonpositive_worker_count_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     flags, env):
        if env is None:
            monkeypatch.delenv("SHECLT_WORKERS", raising=False)
        else:
            monkeypatch.setenv("SHECLT_WORKERS", env)
        cfg = tiny_clt_config(tmp_path)
        out = tmp_path / "o"
        assert dispatch(["--out-dir", str(out), *flags, "clt", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "workers" in err.lower()
        assert not out.exists()

    def test_byte_identical_reruns_and_worker_counts(self, tmp_path):
        for cmd, overrides in EXPERIMENT_OVERRIDES.items():
            cfg = tiny_clt_config(tmp_path, replicas=150, **overrides)
            outs = []
            for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
                out = tmp_path / f"{cmd}-{tag}"
                code = dispatch(
                    ["--out-dir", str(out), "--seed", "7", "--workers", workers,
                     cmd, "--config", str(cfg)]
                )
                assert code == 0, cmd
                outs.append(out)
            # every CSV and the summary; the manifest differs in its wall clock only
            names = [p.name for p in out_files(outs[0], cmd, "")]
            assert any(n.endswith(".csv") for n in names) and any("-summary-" in n for n in names)
            for name in names:
                ref = (outs[0] / name).read_bytes()
                assert (outs[1] / name).read_bytes() == ref, name
                assert (outs[2] / name).read_bytes() == ref, name

    def test_fdd_ignores_the_config_psi(self, tmp_path):
        # fdd builds its own Q(r) and increment boxes: a malformed or missing
        # psi key changes nothing but the config the manifest records
        good = json.loads(tiny_clt_config(tmp_path, **EXPERIMENT_OVERRIDES["fdd"]).read_text())
        variants = {"good": good, "malformed": dict(good, psi=[{"boxes": "not-a-list"}]),
                    "missing": {k: v for k, v in good.items() if k != "psi"}}
        results = []
        for tag, raw in variants.items():
            cfg = tmp_path / f"{tag}.json"
            cfg.write_text(json.dumps(raw))
            out = tmp_path / f"out-{tag}"
            code = dispatch(["--out-dir", str(out), "--seed", "7", "--workers", "1",
                             "fdd", "--config", str(cfg)])
            (csv,) = out_files(out, "fdd-cov", ".csv")
            summary = json.loads(out_files(out, "fdd-summary", ".json")[0].read_text())
            summary.pop("manifest_hash")
            results.append((code, csv.read_bytes(), summary))
        assert results[0][0] in (0, 1)
        assert results[1] == results[0] and results[2] == results[0]

    def test_entropy_sandwich_smoke(self, tmp_path):
        out = tmp_path / "out"
        code = dispatch(
            ["--out-dir", str(out), "--seed", "5", "entropy", "--check", "sandwich",
             "--spaces", "25", "--points", "8"]
        )
        assert code == 0
        summary = json.loads(out_files(out, "entropy-summary", ".json")[0].read_text())
        assert summary["flags"]["sandwich_holds"]

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        monkeypatch.setenv("SHECLT_SEED", "12345")
        assert dispatch(["--out-dir", str(out1), "solve", "--kind", "dirac",
                         "--t", "0.25", "--dx", "0.25", "--L", "8", "--replicas", "10"]) == 0
        monkeypatch.delenv("SHECLT_SEED")
        assert dispatch(["--out-dir", str(out2), "--seed", "12345", "solve", "--kind", "dirac",
                         "--t", "0.25", "--dx", "0.25", "--L", "8", "--replicas", "10"]) == 0
        (c1,) = out_files(out1, "solve-stats", ".csv")
        (c2,) = out_files(out2, "solve-stats", ".csv")
        assert c1.read_bytes() == c2.read_bytes()


class TestStatisticalSubcommands:
    def test_independence_fdd_tails_smoke(self, tmp_path):
        config = {
            "covariance": {"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}},
            "sigma": {"kind": "constant", "params": [1.0]},
            "g": [{"kind": "identity"}],
            "psi": [
                {"label": "a", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]},
                {"label": "b", "boxes": [{"amp": 1.0, "lo": [2.0], "hi": [3.0]}]},
            ],
            "t": 0.25,
            "n_ladder": [4, 8],
            "dx": 0.25,
            "replicas": 200,
            "seed": 7,
            "n_perm": 40,
        }
        cfg = tmp_path / "ind.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out-ind"
        code = dispatch(["--out-dir", str(out), "--seed", "7", "independence", "--config", str(cfg)])
        assert code == 0
        header, rows = read_rows(out_files(out, "independence-", ".csv")[0])
        assert header == ["N", "pair", "max_ecf_gap", "null_q99", "rhs_bound"]
        assert any(r[1] == "a~b" for r in rows)

        fdd_config = dict(config)
        fdd_config["psi"] = [{"label": "u", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]}]
        fdd_config["r_grid"] = [0.5, 1.0]
        fdd_config["covariance_tolerance"] = 0.9
        cfg2 = tmp_path / "fdd.json"
        cfg2.write_text(json.dumps(fdd_config))
        out2 = tmp_path / "out-fdd"
        assert dispatch(["--out-dir", str(out2), "--seed", "7", "fdd", "--config", str(cfg2)]) == 0

        tails_config = dict(fdd_config)
        tails_config["ell_points"] = 12
        cfg3 = tmp_path / "tails.json"
        cfg3.write_text(json.dumps(tails_config))
        out3 = tmp_path / "out-tails"
        assert dispatch(["--out-dir", str(out3), "--seed", "7", "tails", "--config", str(cfg3)]) == 0
        summary = json.loads(out_files(out3, "tails-summary", ".json")[0].read_text())
        assert summary["flags"]["no_violations"]


# Malformed values only: letters cannot spell a number other than nan/inf,
# and every number drawn is non-finite, zero or a small negative, so no draw
# asks for a large grid, replica count or time.
_WORD = st.sampled_from([
    "dirac", "gaussian", "uniform", "exponential", "constant", "linear", "affine",
    "identity", "sin", "shifted", "scaled", "tabulated",
]) | st.text(alphabet="abcdefghijklmnopqrstuvwxyz_:,", max_size=8)
_ATOM = st.one_of(
    st.none(), _WORD, st.sampled_from([NAN, INF, -INF, 0, 0.0]),
    st.integers(-5, -1), st.floats(-5.0, -1e-3),
)
_RECORD_KEY = st.one_of(st.sampled_from([
    "kind", "params", "param", "dimension", "mass", "boxes", "amp", "lo", "hi",
    "label", "xs", "ys", "base", "a", "b",
]), _WORD)
_MALFORMED = st.recursive(
    _ATOM,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_RECORD_KEY, inner, max_size=3),
    max_leaves=6,
)
_CONFIG_KEYS = ["covariance", "sigma", "g", "psi", "t", "n_ladder", "dx", "replicas",
                "baseline_replicas", "bt_replicas", "variance_tolerance", "covariance_tolerance",
                "n_perm", "r_grid", "base_box", "tail_eps", "tail_delta", "ell_points"]
_SIGMA_FLAG = st.one_of(
    st.text(max_size=16),
    st.builds(
        "{}:{}".format,
        st.sampled_from(["constant", "linear", "affine", "tabulated", "cubic", ""]),
        st.lists(st.sampled_from(["1", "0", "-1", "0.5", "nan", "inf", "-inf", "x", ""]),
                 max_size=3).map(",".join),
    ),
)


# Entropy flags: non-finite, zero, negative or non-numeric values, and grids
# with fewer than two distinct radii; never a tiny positive radius, because
# the sampled class grows like r^-2.
_BAD_NUMBER = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.25", "x", ""])
_ENTROPY_FLAG = st.one_of(
    st.tuples(st.just("--r-grid"),
              st.lists(_BAD_NUMBER | st.just("0.3"), min_size=1, max_size=3).map(",".join)),
    st.tuples(st.sampled_from(["--spaces", "--points"]), _BAD_NUMBER),
    st.tuples(st.just("--class"), _WORD | _BAD_NUMBER),
)
# bounds and noise-check flags are parametrized, so every flag gets its own draws
_BOUNDS_FLAGS = ["--kind", "--d", "--mass", "--param", "--lambda", "--a", "--eps", "--delta",
                 "--moment-k", "--big-t", "--n-scale", "--sigma0", "--lip-sigma", "--lip-g",
                 "--psi-norm", "--ell"]
_NOISE_CHECK_FLAGS = ["--kind", "--d", "--mass", "--param", "--dx", "--length", "--slices",
                      "--max-lag"]
_MEASURE_KIND = st.sampled_from(["dirac", "gaussian", "uniform", "exponential"])


class TestInputContract:
    """Any malformed config value, --sigma string or bounds, noise-check or
    entropy flag exits 0, 1 or 2; no exception escapes ``dispatch``."""

    @pytest.mark.parametrize("cmd", ["clt", "tails", "fdd"])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(key=st.sampled_from(_CONFIG_KEYS), value=_MALFORMED)
    def test_mutated_config_exits_cleanly(self, cmd, key, value):
        overrides = {"n_ladder": [2], "dx": 0.25, "t": 0.0625, "replicas": 60, key: value}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = tiny_clt_config(Path(tmp), **overrides)
            code = dispatch(["--out-dir", str(Path(tmp) / "o"), "--workers", "1",
                             cmd, "--config", str(cfg)])
        assert code in (0, 1, 2)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(key=st.sampled_from(_CONFIG_KEYS), value=_MALFORMED)
    def test_mutated_independence_config_exits_cleanly(self, key, value):
        psi = [{"label": f"b{i}", "boxes": [{"amp": 1.0, "lo": [2.0 * i], "hi": [2.0 * i + 1]}]}
               for i in range(2)]
        overrides = {"n_ladder": [2], "dx": 0.25, "t": 0.0625, "replicas": 60, "psi": psi,
                     "n_perm": 5, key: value}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = tiny_clt_config(Path(tmp), **overrides)
            code = dispatch(["--out-dir", str(Path(tmp) / "o"), "--workers", "1",
                             "independence", "--config", str(cfg)])
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("flag", _BOUNDS_FLAGS)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=_MEASURE_KIND, value=_WORD | _BAD_NUMBER)
    def test_bounds_flag_exits_cleanly(self, flag, kind, value):
        args = {"--kind": kind, "--lambda": "1.0", "--a": "0.5", "--ell": "1.0", flag: value}
        with tempfile.TemporaryDirectory() as tmp:
            code = dispatch(["--out-dir", tmp, "bounds",
                             *(part for item in args.items() for part in item)])
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("flag", _NOISE_CHECK_FLAGS)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=_MEASURE_KIND, value=_WORD | _BAD_NUMBER)
    def test_noise_check_flag_exits_cleanly(self, flag, kind, value):
        args = {"--kind": kind, "--dx": "0.25", "--length": "2", "--slices": "4", "--max-lag": "1",
                flag: value}
        with tempfile.TemporaryDirectory() as tmp:
            code = dispatch(["--out-dir", tmp, "noise-check",
                             *(part for item in args.items() for part in item)])
        assert code in (0, 1, 2)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(flag=_SIGMA_FLAG)
    def test_sigma_flag_exits_cleanly(self, flag):
        with tempfile.TemporaryDirectory() as tmp:
            code = dispatch(["--out-dir", tmp, "--workers", "1", "solve", "--kind", "dirac",
                             "--sigma", flag, "--L", "2", "--dx", "0.25", "--t", "0.0625",
                             "--replicas", "2"])
        assert code in (0, 1, 2)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(check=st.sampled_from(["sandwich", "chain", "exponent"]), flag=_ENTROPY_FLAG)
    def test_entropy_flag_exits_cleanly(self, check, flag):
        args = {"--spaces": "2", "--points": "3", "--class": "shift", "--r-grid": "0.2,0.3"}
        args[flag[0]] = flag[1]
        with tempfile.TemporaryDirectory() as tmp:
            code = dispatch(["--out-dir", tmp, "entropy", "--check", check,
                             *(part for item in args.items() for part in item)])
        assert code in (0, 1, 2)
