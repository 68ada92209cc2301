"""Hash the outputs of a fixed set of runs, to compare two source trees byte for byte.

    python scripts/byte_check.py run SRC OUT.json      # SRC: a tree's src/ directory
    python scripts/byte_check.py compare A.json B.json

``run`` executes every case below with ``PYTHONPATH=SRC`` in a fresh output
directory and records the SHA-256 of each file it writes: CSVs, summaries,
field dumps, and manifests with ``wall_clock_s`` removed (the one field
that differs between reruns).  ``compare`` lists the cases and files whose
hashes differ; it exits 0 only when both records are identical.

Cases, each at ``--workers 1`` and ``2``:

* ``solve`` (fields dumped) with constant(1.3), linear(0.7), affine(1, 0.5),
  affine(0, 0.8) and affine(1.2, 0), white noise in d = 1 and Gaussian
  noise in d = 2, plus ``solve_batch`` fields for those and a table, and
  for Gaussian noise in d = 3 (the circulant filter with an odd number of
  passes);
* ``estimate_Bt`` (value, se, boundary_cov) with g = identity and sin on
  120 affine(1, 0.5) replicas with Gaussian noise in d = 1, 2 and 3, in
  2, 4 and 15 blocks of 256 KiB;
* ``clt``, ``fdd``, ``tails`` and ``independence`` on the small
  configuration of ``tests/test_cli.py`` with constant, affine(1, 0.5) and
  tabulated sigma;
* ``independence``, ``fdd`` and ``tails`` with affine(1, 0.5) sigma and
  g = [identity, sin], ``fdd`` with an unsorted ``r_grid`` that repeats a
  radius, and ``independence`` on three boxes (the joint m = 3 ECF report);
* ``bounds`` for two kinds, ``entropy --check`` sandwich, chain, bound and
  exponent, the scale class's exponent on the finer radii 0.1, ..., 0.5,
  the box class's on 0.05, ..., 0.2 and the shift class's on 0.01, ..., 0.1,
  and sandwich checks on spaces of up to 12 points.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "7"
SIGMA_FLAGS = ["constant:1.3", "linear:0.7", "affine:1,0.5", "affine:0,0.8", "affine:1.2,0"]
SIGMA_RECORDS = {
    "constant": {"kind": "constant", "params": [1.0]},
    "affine": {"kind": "affine", "params": [1.0, 0.5]},
    "tabulated": {"kind": "tabulated", "params": [[-1.0, 0.0, 2.0], [0.5, 1.0, 0.2]]},
}
TWO_BOXES = [{"label": "a", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]},
             {"label": "b", "boxes": [{"amp": 1.0, "lo": [2.0], "hi": [3.0]}]}]
THREE_BOXES = TWO_BOXES + [{"label": "c", "boxes": [{"amp": 1.0, "lo": [4.0], "hi": [5.0]}]}]
EXPERIMENTS = {
    "clt": {},
    "independence": {"psi": TWO_BOXES, "n_ladder": [4, 8], "n_perm": 40},
    "fdd": {"r_grid": [0.5, 1.0], "covariance_tolerance": 0.9, "n_perm": 40},
    "tails": {"ell_points": 12},
}
# (command, overrides) run with affine sigma: a second observable the
# command does not report, and radii out of order with one repeated
EXTRA = {
    f"{command}-two-g": (command, {**EXPERIMENTS[command],
                                   "g": [{"kind": "identity"}, {"kind": "sin"}]})
    for command in ("independence", "fdd", "tails")
}
EXTRA["fdd-unsorted-r"] = ("fdd", {**EXPERIMENTS["fdd"], "r_grid": [1.0, 0.25, 0.5, 0.5]})
# three boxes: the joint m = 3 ECF report next to the three pairwise ones
EXTRA["independence-three-boxes"] = ("independence", {**EXPERIMENTS["independence"],
                                                      "psi": THREE_BOXES})
# solve_batch on the same small grids, for every sigma including the table
API_SOLVES = """
import hashlib, sys
from sheclt.noise import Grid
from sheclt.occupation import LipFunction, estimate_Bt
from sheclt.solver import SigmaFunction, solve_batch
from sheclt.spectral import CovarianceMeasure
sigmas = [SigmaFunction.constant(1.3), SigmaFunction.linear(0.7), SigmaFunction.affine(1.0, 0.5),
          SigmaFunction.affine(0.0, 0.8), SigmaFunction.affine(1.2, 0.0),
          SigmaFunction.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 0.2])]
for d, f in ((1, CovarianceMeasure("dirac", 1, 1.0)), (2, CovarianceMeasure("gaussian", 2, 1.0, 1.0)),
             (3, CovarianceMeasure("gaussian", 3, 1.0, 1.0))):
    grid = Grid.for_length(4.0, 0.25, d)
    for i, s in enumerate(sigmas):
        fields, _ = solve_batch(grid, s, f, 0.25, 7, range(8))
        print(f"d{d}-sigma{i}", hashlib.sha256(fields.tobytes()).hexdigest())
for d, dx in ((1, 1 / 32), (2, 0.5), (3, 1.0)):
    grid, f = Grid.for_length(16.0, dx, d), CovarianceMeasure("gaussian", d, 1.0, 1.0)
    fields, _ = solve_batch(grid, sigmas[2], f, 0.5, 7, range(120))
    for g in (LipFunction.identity(), LipFunction.sin()):
        est = estimate_Bt(fields, grid, g, t=0.5, f=f)
        result = repr((est.value, est.se, est.boundary_cov))
        print(f"bt-d{d}-{g.label}", hashlib.sha256(result.encode()).hexdigest())
"""


def cases():
    """(name, argv after the global flags, config dict or None)."""
    for d, kind in ((1, "dirac"), (2, "gaussian")):
        for flag in SIGMA_FLAGS:
            yield (f"solve-d{d}-{flag}", ["solve", "--kind", kind, "--d", str(d), "--sigma", flag,
                                          "--t", "0.25", "--dx", "0.25", "--L", "4",
                                          "--replicas", "8", "--dump-fields"], None)
    experiments = [(f"{command}-{name}", command, sigma, overrides)
                   for command, overrides in EXPERIMENTS.items()
                   for name, sigma in SIGMA_RECORDS.items()]
    experiments += [(name, command, SIGMA_RECORDS["affine"], overrides)
                    for name, (command, overrides) in EXTRA.items()]
    for name, command, sigma, overrides in experiments:
        config = {
            "covariance": {"kind": "dirac", "dimension": 1, "mass": 1.0, "params": {}},
            "sigma": sigma, "g": [{"kind": "identity"}],
            "psi": [{"label": "unit", "boxes": [{"amp": 1.0, "lo": [0.0], "hi": [1.0]}]}],
            "t": 0.25, "n_ladder": [4], "dx": 0.25, "replicas": 300,
            "variance_tolerance": 0.5, **overrides,
        }
        yield name, [command, "--config"], config
    for kind in ("dirac", "gaussian"):
        yield (f"bounds-{kind}", ["bounds", "--kind", kind, "--lambda", "0.5", "--lambda", "2",
                                  "--a", "0.3", "--ell", "1.0"], None)
    for check in ("sandwich", "chain", "bound", "exponent"):
        yield f"entropy-{check}", ["entropy", "--check", check], None
    yield ("entropy-exponent-scale-fine", ["entropy", "--check", "exponent", "--class", "scale",
                                           "--r-grid", "0.1,0.2,0.3,0.4,0.5"], None)
    # narrow reach windows of the box (d = 1) and shift classes
    yield ("entropy-exponent-box-fine", ["entropy", "--check", "exponent", "--class", "box",
                                         "--r-grid", "0.05,0.08,0.12,0.2"], None)
    yield ("entropy-exponent-shift-fine", ["entropy", "--check", "exponent", "--class", "shift",
                                           "--r-grid", "0.01,0.02,0.05,0.1"], None)
    # spaces of up to EXACT_LIMIT = 12 points, the largest the subset pass takes
    yield "entropy-sandwich-12", ["entropy", "--check", "sandwich", "--points", "12"], None


def file_hash(path: Path) -> str:
    data = path.read_bytes()
    if path.name.startswith("manifest-"):
        record = json.loads(data)
        record.pop("wall_clock_s")
        data = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def run(src: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workers in ("1", "2"):
            for name, argv, config in cases():
                key = f"{name}-w{workers}"
                out_dir = Path(tmp) / key
                out_dir.mkdir()
                if config is not None:
                    (out_dir / "config.json").write_text(json.dumps(config))
                    argv = argv + [str(out_dir / "config.json")]
                proc = subprocess.run(
                    [sys.executable, "-m", "sheclt.cli", "--out-dir", str(out_dir / "o"),
                     "--seed", SEED, "--workers", workers, *argv],
                    env=env, capture_output=True, text=True,
                )
                files = sorted((out_dir / "o").iterdir()) if (out_dir / "o").exists() else []
                record[key] = {"exit": proc.returncode, "stderr": proc.stderr,
                               **{p.name: file_hash(p) for p in files}}
                print(key, proc.returncode, len(files), flush=True)
    api = subprocess.run([sys.executable, "-c", API_SOLVES], env=env, capture_output=True,
                         text=True, check=True)
    record["solve_batch"] = dict(line.split() for line in api.stdout.splitlines())
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def compare(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    differ = []
    for case in sorted(set(left) | set(right)):
        x, y = left.get(case, {}), right.get(case, {})
        differ += [f"{case}: {k}" for k in sorted(set(x) | set(y)) if x.get(k) != y.get(k)]
    entries = sum(len(v) for v in left.values())
    print(f"{len(left)} cases, {entries} entries; {len(differ)} differ")
    for line in differ:
        print("  " + line)
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and len(sys.argv) == 4:
        run(Path(sys.argv[2]), Path(sys.argv[3]))
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    else:
        sys.exit(__doc__)
