"""Every public definition in ``src/sheclt`` is reached from the program.

A public module-level function or class, or a public method of a public
class, must be named as a whole word somewhere in ``src/`` or ``bench/*.py``
outside its own body and outside the bodies of definitions that are
themselves unreached.  ``TEST_ONLY`` lists the definitions that only tests
use, on purpose; their bodies count as reached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_ONLY = {
    "picard_solve": "the Picard scheme that cross-validates the Euler path",
    "time_integrated_cov": "the constant-sigma covariance profile Euler fields are checked against",
    "heat_kernel": "the kernel of the quadrature oracle for the heat-smoothed covariance",
    "fourier_axis": "the spectral density behind the upsilon and spectral-weight oracles",
    "load_array": "reads back the binary dumps that the commands write",
    "marginal_variance_run": "drives acceptance criterion 3",
    "nondegeneracy_check": "the B_t positivity check, kept for ROADMAP item 1",
}


def definitions():
    for path in sorted((ROOT / "src" / "sheclt").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", (path, node.lineno, node.end_lineno)
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        qualname = f"{path.stem}.{node.name}.{sub.name}"
                        yield qualname, (path, sub.lineno, sub.end_lineno)


def test_every_public_definition_is_reached():
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").glob("*.py")]
    texts = {p: p.read_text() for p in sources}
    spans = dict(definitions())
    hits = {q: [(p, text.count("\n", 0, m.start()) + 1) for p, text in texts.items()
                for m in re.finditer(rf"\b{q.rsplit('.', 1)[-1]}\b", text)] for q in spans}
    inside = lambda hit, span: hit[0] == span[0] and span[1] <= hit[1] <= span[2]
    unreached = set()
    while True:  # a reference from inside an unreached definition does not count
        dead = [spans[q] for q in unreached]
        now = {q for q, span in spans.items() if q.rsplit(".", 1)[-1] not in TEST_ONLY
               and all(any(inside(h, s) for s in [span, *dead]) for h in hits[q])}
        if now == unreached:
            break
        unreached = now
    assert not unreached, sorted(unreached)
