"""One workload process: set up, run timed rounds, check them, report JSON.

Started by ``run.py``; not meant to be run by hand.  The last line of its
standard output is one JSON object with the process's measurements.

Untraced (``--trace 0``): rounds at the default worker count until
``--seconds`` have passed; ``wall_s`` is the median over rounds of the time
spent inside the program's calls.

Traced (``--trace 1``): each round runs three passes on the same seed:
untraced at the default worker count (CPU utilisation), untraced with
workers = 1, and traced with workers = 1.  The last two give the tracing
overhead and must produce byte-identical outputs, as must the first two
(the program promises output bits independent of the worker count).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Round:
    """Times the program calls of one pass and records which operations failed."""

    def __init__(self, tracer=None, rnd: int = -1):
        self.wall = 0.0
        self.cpu = 0.0
        self.done: list[str] = []
        self.tracer, self.rnd = tracer, rnd

    def call(self, op: str, fn, *args, **kwargs):
        cpu0 = _cpu_seconds()
        if self.tracer is not None:
            self.tracer.round = self.rnd
            idx = self.tracer.open(op)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.close(idx)
                self.tracer.round = -1
            self.cpu += _cpu_seconds() - cpu0
            self.done.append(op)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(work, rnd: int, workers: int, tag: str, tracer=None):
    """One pass of a round: (outputs or None, Round, failed op names, notes)."""
    rec = Round(tracer, rnd)
    try:
        outputs = work.run_round(rnd, workers, tag, rec.call)
    except Exception:  # a program call raised: that op and the rest fail
        note = traceback.format_exc(limit=3)
        return None, rec, [op for op in work.OPS if op not in rec.done[:-1]], [note]
    failed, notes = [], []
    try:
        results = work.check(outputs)
    except Exception:
        return outputs, rec, list(work.OPS), [traceback.format_exc(limit=3)]
    for op in work.OPS:
        bad = [f"{op}: {name} ({detail})" for name, ok, detail in results[op] if not ok]
        if bad:
            failed.append(op)
            notes.extend(bad)
    return outputs, rec, failed, notes


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import sheclt
    from scipy.integrate import IntegrationWarning

    if not Path(sheclt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sheclt imported from {sheclt.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads
    from sheclt.montecarlo import default_workers

    # lambda_of's 1e-12 bracket probe warns for exponential d = 2; the round
    # trip is still checked against the input lambda
    warnings.simplefilter("ignore", IntegrationWarning)
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        # seed sequences take nonnegative entries only
        work = workloads.WORKLOADS[args.workload](args.seed % 2**64, out)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workers = min(default_workers(), len(os.sched_getaffinity(0)))
        if args.trace:
            result = traced(work, args, workers, out)
        else:
            result = untraced(work, args, workers, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(setup_s=setup_s, peak_rss_mb=rss_kb / 1024.0, workers=workers)
    for note in result["notes"]:
        print(note, file=sys.stderr)
    print(json.dumps(result))
    return 0


def _cleanup(outputs) -> None:
    if outputs and "dir" in outputs:
        shutil.rmtree(outputs["dir"], ignore_errors=True)


def untraced(work, args, workers, out) -> dict:
    walls, failed, notes = [], 0, []
    start = time.monotonic()
    rnd = 0
    while rnd == 0 or time.monotonic() - start < args.seconds:
        outputs, rec, bad, why = run_pass(work, rnd, workers, "w", None)
        walls.append(rec.wall)
        failed += len(bad)
        notes.extend(why)
        _cleanup(outputs)
        rnd += 1
    return {"rounds": rnd, "attempted": rnd * len(work.OPS), "failed": failed, "notes": notes,
            "wall_s": statistics.median(walls), "round_walls": walls}


def traced(work, args, workers, out) -> dict:
    from spans import PER_LAYER, Tracer

    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}")
    layers, failed, notes = [], 0, []
    start = time.monotonic()
    rnd = 0
    while rnd == 0 or time.monotonic() - start < args.seconds:
        a_out, a_rec, a_bad, a_why = run_pass(work, rnd, workers, "default", None)
        b_out, b_rec, b_bad, b_why = run_pass(work, rnd, 1, "serial", None)
        tracer.install()
        try:
            c_out, c_rec, c_bad, c_why = run_pass(work, rnd, 1, "traced", tracer)
        finally:
            tracer.uninstall()
        bad = set(a_bad) | set(b_bad) | set(c_bad)
        notes.extend(a_why + b_why + c_why)
        if a_out is not None and b_out is not None and work.digest(a_out) != work.digest(b_out):
            bad.add(work.OPS[0])
            notes.append(f"outputs differ between {workers} workers and 1 worker")
        if b_out is not None and c_out is not None and work.digest(b_out) != work.digest(c_out):
            bad.add(work.OPS[0])
            notes.append("traced outputs differ from untraced outputs")
        failed += len(bad)
        for o in (a_out, b_out, c_out):
            _cleanup(o)
        m = tracer.layer_metrics(rnd, c_rec.wall)
        m["montecarlo.cpu_utilisation"] = a_rec.cpu / (a_rec.wall * workers)
        m["trace.overhead"] = 100.0 * (c_rec.wall / b_rec.wall - 1.0)
        layers.append(m)
        rnd += 1
    tracer.write(out.parent / f"trace-{args.workload}-seed{args.seed}.jsonl")
    per_layer = {k: {"value": statistics.median(m[k] for m in layers), "unit": unit}
                 for k, (unit, _) in PER_LAYER.items()}
    return {"rounds": rnd, "attempted": rnd * len(work.OPS), "failed": failed, "notes": notes,
            "per_layer": per_layer}


if __name__ == "__main__":
    sys.exit(main())
