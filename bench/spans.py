"""Spans around the program's public functions, recorded from outside.

A ``Tracer`` replaces each traced function on the name its callers look it
up under (``sheclt.solver.sample_noise_batch``, ``sheclt.montecarlo.solve_batch``,
...) or on its class for methods, records one span per call while a round
is being traced, and restores the originals on ``uninstall``.  Spans stay in
memory; ``layer_metrics`` reduces them and ``write`` dumps them at the end.
Tracing runs with workers = 1, so every span nests inside its caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict


def _normals(args, kwargs, result):
    grid, streams = args[0], args[3]
    return {"noise.normals": len(streams) * math.prod(grid.shape)}


def _grid_seen(args, kwargs, result):
    return {"noise.grid:" + repr(args[0]): 1}


def _cell_updates(args, kwargs, result):
    values = args[0]
    return {"solver.replica_steps": values.shape[0], "solver.cell_updates": values.size}


def _baseline_replicas(args, kwargs, result):
    return {"occupation.baseline_replicas": args[5]}


# (layer, [attribute paths], counter) -- a path "module:Class.method" wraps
# the method on the class; "module:name" wraps the module attribute.
LAYERS = [
    ("noise.sample", ["sheclt.solver:sample_noise_batch"], _normals),
    ("noise.weights", ["sheclt.solver:spectral_weights", "sheclt.montecarlo:spectral_weights"],
     _grid_seen),
    ("solver.solve_batch", ["sheclt.solver:solve_batch", "sheclt.montecarlo:solve_batch",
                            "sheclt.cli:solve_batch"], None),
    ("solver.step", ["sheclt.solver:step_euler"], _cell_updates),
    ("solver.laplacian", ["sheclt.solver:discrete_laplacian"], None),
    ("solver.sigma", ["sheclt.solver:SigmaFunction.__call__"], None),
    ("occupation.prepare", ["sheclt.occupation:PreparedTestFunction.__init__"], None),
    ("occupation.integrate", ["sheclt.occupation:PreparedTestFunction.integrate"], None),
    ("occupation.g_eval", ["sheclt.occupation:LipFunction.__call__"], None),
    ("occupation.baseline", ["sheclt.montecarlo:estimate_baseline"], _baseline_replicas),
    ("occupation.bt", ["sheclt.occupation:estimate_Bt", "sheclt.cli:estimate_Bt"], None),
    ("montecarlo.run_experiment", ["sheclt.montecarlo:run_experiment",
                                   "sheclt.cli:run_experiment"], None),
    ("montecarlo.chunk", ["sheclt.montecarlo:_chunk_task"], None),
    ("montecarlo.field_run", ["sheclt.montecarlo:field_run"], None),
    ("montecarlo.ecf_null", ["sheclt.montecarlo:ecf_permutation_null"], None),
    ("montecarlo.ecf_gap", ["sheclt.montecarlo:ecf_gap"], None),
    ("montecarlo.independence_rhs", ["sheclt.cli:independence_rhs"], None),
    ("montecarlo.ks", ["sheclt.montecarlo:ks_normal"], None),
    ("spectral.upsilon", ["sheclt.spectral:upsilon", "sheclt.cli:upsilon"], None),
    ("spectral.lambda_of", ["sheclt.spectral:lambda_of", "sheclt.cli:lambda_of"], None),
    ("entropy.covering", ["sheclt.entropy:covering_number",
                          "sheclt.entropy:covering_number_exact"], None),
    ("entropy.class_sample", ["sheclt.entropy:BoxClass.sample", "sheclt.entropy:ShiftClass.sample",
                              "sheclt.entropy:ScaleClass.sample"], None),
    ("entropy.chain", ["sheclt.entropy:chain_construct"], None),
    ("cli.dispatch", ["sheclt.cli:dispatch"], None),
    ("io.write_csv", ["sheclt.cli:write_csv"], None),
]

# per-layer metric name -> (unit, better); the README maps each to the
# end-to-end metric and workload it should move
PER_LAYER = {
    "noise.sample_s": ("s", "lower"),
    "noise.normals": ("count", "lower"),
    "noise.ns_per_normal": ("ns", "lower"),
    "noise.weights_calls": ("count", "lower"),
    "noise.weights_per_grid": ("count", "lower"),
    "solver.solve_batch_s": ("s", "lower"),
    "solver.step_s": ("s", "lower"),
    "solver.laplacian_s": ("s", "lower"),
    "solver.sigma_s": ("s", "lower"),
    "solver.replica_steps": ("count", "lower"),
    "solver.cell_updates": ("count", "lower"),
    "solver.ns_per_cell_update": ("ns", "lower"),
    "occupation.prepare_s": ("s", "lower"),
    "occupation.prepare_calls": ("count", "lower"),
    "occupation.integrate_s": ("s", "lower"),
    "occupation.g_eval_s": ("s", "lower"),
    "occupation.baseline_s": ("s", "lower"),
    "occupation.baseline_replicas": ("count", "lower"),
    "occupation.bt_s": ("s", "lower"),
    "montecarlo.run_experiment_s": ("s", "lower"),
    "montecarlo.chunks": ("count", "lower"),
    "montecarlo.field_run_s": ("s", "lower"),
    "montecarlo.cpu_utilisation": ("ratio", "higher"),
    "montecarlo.ecf_null_s": ("s", "lower"),
    "montecarlo.ecf_gap_calls": ("count", "lower"),
    "montecarlo.independence_rhs_s": ("s", "lower"),
    "montecarlo.ks_s": ("s", "lower"),
    "spectral.upsilon_s": ("s", "lower"),
    "spectral.upsilon_calls": ("count", "lower"),
    "spectral.lambda_of_s": ("s", "lower"),
    "spectral.lambda_of_calls": ("count", "lower"),
    "spectral.upsilon_per_lambda_of": ("count", "lower"),
    "entropy.covering_s": ("s", "lower"),
    "entropy.covering_calls": ("count", "lower"),
    "entropy.class_sample_s": ("s", "lower"),
    "entropy.chain_s": ("s", "lower"),
    "cli.dispatch_self_s": ("s", "lower"),
    "io.write_csv_s": ("s", "lower"),
    "trace.self_share": ("ratio", "higher"),
    "trace.overhead": ("%", "lower"),
}

# inclusive busy time per layer reported as "<layer>_s"
_TIMED = {
    "noise.sample", "solver.solve_batch", "solver.step", "solver.laplacian", "solver.sigma",
    "occupation.prepare", "occupation.integrate", "occupation.g_eval", "occupation.baseline",
    "occupation.bt", "montecarlo.run_experiment", "montecarlo.field_run", "montecarlo.ecf_null",
    "montecarlo.independence_rhs", "montecarlo.ks", "spectral.upsilon", "spectral.lambda_of",
    "entropy.covering", "entropy.class_sample", "entropy.chain", "io.write_csv",
}


def _resolve(path):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder; one instance per workload process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (name, start, end, parent, round)
        self.counts: dict = defaultdict(int)
        self.round = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self) -> None:
        for layer, paths, counter in LAYERS:
            for path in paths:
                owner, name = _resolve(path)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
                setattr(owner, name, self._wrap(layer, original, counter))
                self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.round < 0:
                return fn(*args, **kwargs)
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    tracer.counts[(tracer.round, key)] += inc
            tracer.counts[(tracer.round, layer + ".calls")] += 1
            return result

        return traced

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def layer_metrics(self, rnd: int, wall_s: float) -> dict:
        """Per-layer metrics of one traced round whose root spans took wall_s."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        child_time: dict = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict = defaultdict(float)
        self_time: dict = defaultdict(float)
        upsilon_in_lambda = 0
        for i, (name, start, end, parent, _) in spans:
            self_time[name] += end - start - child_time[i]
            ancestors = self._ancestors(parent)
            if name not in ancestors:  # recursion counts once
                busy[name] += end - start
            if name == "spectral.upsilon" and "spectral.lambda_of" in ancestors:
                upsilon_in_lambda += 1
        counts = {key: v for (r, key), v in self.counts.items() if r == rnd}
        out = {f"{layer}_s": busy[layer] for layer in _TIMED}
        normals = counts.get("noise.normals", 0)
        cells = counts.get("solver.cell_updates", 0)
        grids = sum(1 for key in counts if key.startswith("noise.grid:"))
        lambda_calls = counts.get("spectral.lambda_of.calls", 0)
        out.update({
            "noise.normals": normals,
            "noise.ns_per_normal": 1e9 * busy["noise.sample"] / normals if normals else 0.0,
            "noise.weights_calls": counts.get("noise.weights.calls", 0),
            "noise.weights_per_grid": counts.get("noise.weights.calls", 0) / grids if grids else 0.0,
            "solver.replica_steps": counts.get("solver.replica_steps", 0),
            "solver.cell_updates": cells,
            "solver.ns_per_cell_update": 1e9 * busy["solver.solve_batch"] / cells if cells else 0.0,
            "occupation.prepare_calls": counts.get("occupation.prepare.calls", 0),
            "occupation.baseline_replicas": counts.get("occupation.baseline_replicas", 0),
            "montecarlo.chunks": counts.get("montecarlo.chunk.calls", 0),
            "montecarlo.ecf_gap_calls": counts.get("montecarlo.ecf_gap.calls", 0),
            "spectral.upsilon_calls": counts.get("spectral.upsilon.calls", 0),
            "spectral.lambda_of_calls": lambda_calls,
            "spectral.upsilon_per_lambda_of": upsilon_in_lambda / lambda_calls if lambda_calls else 0.0,
            "entropy.covering_calls": counts.get("entropy.covering.calls", 0),
            "cli.dispatch_self_s": self_time["cli.dispatch"],
            "trace.self_share": sum(self_time.values()) / wall_s if wall_s > 0 else 0.0,
        })
        return out

    def _ancestors(self, parent: int) -> set:
        names = set()
        while parent >= 0:
            names.add(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def write(self, path) -> None:
        """Dump every span as JSON lines: name, start, end, parent, round, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "round": rnd, "run": self.run_id}) + "\n")
