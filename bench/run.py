"""sheclt benchmark: four workloads, end-to-end metrics, a traced breakdown.

    python3 bench/run.py --workload clt-white --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload
    python3 bench/run.py --workload all --seed 1 --repeat 10  # spread

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts fresh processes with BLAS/OpenMP threads pinned to one:
two set-up probes and one workload process (see ``session.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("clt-white", "clt-nonlinear-2d", "independence", "bounds-entropy")
SETUP_SAMPLES = 3  # set-up is timed in this many fresh processes; the median is reported
RUN_DEADLINE_S = 175.0  # a run, all of its processes included, ends within this
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """A workload process failed to produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHECLT_")}
    env.update({k: "1" for k in PINNED})
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload, as the JSON object described above."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        res = spawn(workload, seed, seconds, 1, False, deadline)
        metrics = res["per_layer"]
    else:
        setups = [spawn(workload, seed, seconds, 0, True, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = spawn(workload, seed, seconds, 0, False, deadline)
        setups.append(res["setup_s"])
        values = {"setup_s": statistics.median(setups), "wall_s": res["wall_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "round_walls": res.get("round_walls")}


def repeat(workloads, seed: int, seconds: float, k: int) -> dict:
    """Run each workload k times on seeds seed..seed+k-1; median and quartiles."""
    summary = {}
    for w in workloads:
        runs = []
        for i in range(k):
            runs.append(run_once(w, seed + i, seconds, 0))
            print(f"{w} seed {seed + i}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in runs[-1]["metrics"].items())
                + " rounds=" + ",".join(f"{t:.3f}" for t in runs[-1]["round_walls"]), flush=True)
        stats = {}
        for name in END_TO_END:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print(f"  {name}: median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                  f"spread {(q3 - q1) / med:.3f}", flush=True)
        summary[w] = {"runs": k, "failed": sum(r["failed"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs), "metrics": stats}
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="runs per workload, for the spread")
    args = p.parse_args()
    if not (ROOT / "src" / "sheclt" / "__init__.py").is_file():
        print(f"no sheclt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.repeat:
            summary = repeat(chosen, args.seed, args.seconds, args.repeat)
            print(json.dumps(summary))
            return 0 if all(s["failed"] == 0 for s in summary.values()) else 1
        results = {w: run_once(w, args.seed, args.seconds, args.trace) for w in chosen}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results.values():
        del res["round_walls"]
    for w, res in results.items():
        if len(results) > 1:
            print(f"{w}: " + json.dumps(res))
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
