"""Every definition in ``src/sheclt`` is reached, and every default is set.

Two audits read the syntax trees of ``src/`` and ``bench/*.py``.

* **Names.**  A module-level function or class, public or private, or a
  public method of a public class, must be referenced outside its own body
  and outside the bodies of definitions that are themselves unreached.  A
  reference is an ``ast.Name``, an ``ast.Attribute`` or an import alias
  with that identifier, or a ``"sheclt.module:name"`` path string in
  ``bench/spans.py``; words in strings and comments do not count.
  ``TEST_ONLY`` lists the definitions that only tests use, on purpose; their
  bodies count as reached.
* **Parameters.**  Every defaulted parameter of a module-level function, a
  public method or an ``__init__``, and every defaulted dataclass field,
  must be supplied, by keyword or by position, by some call of that name.
  ``cls(...)`` inside a classmethod calls its own class, a starred argument
  supplies every position and ``**`` every keyword.  Parameters of
  ``TEST_ONLY`` definitions are exempt; ``UNSET`` lists the parameters kept
  without a caller, on purpose.

Names resolve by identifier only, so two definitions of one name share their
references and their calls.  Both allowlists must stay current: each entry
names a definition or parameter that exists and still needs the exemption.
"""

import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_ONLY = {
    "load_array": "reads back the binary dumps that the commands write",
    "marginal_variance_run": "drives acceptance criterion 3",
    "packing_number_exact": "the exact packing count alone; sandwich_check takes P(r) from its own subset pass",
}
UNSET = {
    "estimate_Bt(G)": "the cross-covariance of two observables, for ROADMAP item 9",
    "solve_batch(snapshot_times)": "fields at intermediate times, for ROADMAP item 10",
}
SPAN_PATH = re.compile(r"sheclt\.\w+:([\w.]+)")


def parse(paths) -> dict:
    return {p: ast.parse(p.read_text()) for p in paths}


def program():
    """(defining modules, referring modules): ``src/sheclt``, and ``src/`` plus ``bench/*.py``."""
    defining = parse(sorted((ROOT / "src" / "sheclt").glob("*.py")))
    referring = {**parse(sorted((ROOT / "src").rglob("*.py"))),
                 **parse(sorted((ROOT / "bench").glob("*.py")))}
    return defining, referring


def _defined(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _public(node) -> bool:
    return _defined(node) and not node.name.startswith("_")


def definitions(modules) -> dict:
    """qualname -> (path, node) of every module-level function and class, public
    or private, and every public method of a public class."""
    out = {}
    for path, tree in modules.items():
        for node in filter(_defined, tree.body):
            out[f"{path.stem}.{node.name}"] = (path, node)
            for sub in node.body if isinstance(node, ast.ClassDef) and _public(node) else ():
                if isinstance(sub, ast.FunctionDef) and _public(sub):
                    out[f"{path.stem}.{node.name}.{sub.name}"] = (path, sub)
    return out


def references(modules) -> dict:
    """identifier -> [(path, line)] of every Name, Attribute and import alias."""
    out = {}
    for path, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name.rsplit(".", 1)[-1]]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path.name == "spans.py":
                names = [n for m in SPAN_PATH.finditer(node.value) for n in m.group(1).split(".")]
            else:
                continue
            for name in names:
                out.setdefault(name, []).append((path, node.lineno))
    return out


def unreached(defs, refs, exempt=TEST_ONLY) -> set:
    """Definitions with no reference outside their own body and the bodies of
    unreached definitions; a reference from inside those does not count."""
    spans = {q: (p, node.lineno, node.end_lineno) for q, (p, node) in defs.items()}
    inside = lambda hit, span: hit[0] == span[0] and span[1] <= hit[1] <= span[2]
    dead = set()
    while True:
        skip = [spans[q] for q in dead]
        now = {q for q, span in spans.items() if q.rsplit(".", 1)[-1] not in exempt
               and all(any(inside(h, s) for s in [span, *skip])
                       for h in refs.get(q.rsplit(".", 1)[-1], []))}
        if now == dead:
            return dead
        dead = now


def _decorated(node, name) -> bool:
    return any(ast.unparse(d).split("(")[0] == name for d in node.decorator_list)


def calls(modules) -> dict:
    """callee identifier -> [(positions supplied, keywords supplied)]; a
    starred argument supplies every position (inf), ``**`` every keyword (None)."""
    out = {}

    def record(name, call):
        npos = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
        kws = {k.arg for k in call.keywords}
        out.setdefault(name, []).append((npos, None if None in kws else kws))

    def visit(node, cls_alias):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and _decorated(sub, "classmethod") and sub.args.args:
                    visit(sub, (sub.args.args[0].arg, node.name))
                else:
                    visit(sub, None)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                record(cls_alias[1] if cls_alias and func.id == cls_alias[0] else func.id, node)
            elif isinstance(func, ast.Attribute):
                record(func.attr, node)
        for child in ast.iter_child_nodes(node):
            visit(child, cls_alias)

    for tree in modules.values():
        visit(tree, None)
    return out


def defaulted(defs) -> dict:
    """'Owner(param)' -> (callee identifier, param, position or None if
    keyword-only) for every defaulted parameter of a function, method or
    __init__ in ``defs`` and every defaulted dataclass field; positions skip
    self and cls."""
    out = {}
    for qualname, (_, node) in defs.items():
        if isinstance(node, ast.ClassDef):
            init = [s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
            if not init and _decorated(node, "dataclass"):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(s.annotation)]
                for i, f in enumerate(fields):
                    if f.value is not None:
                        out[f"{node.name}({f.target.id})"] = (node.name, f.target.id, i)
            owner, fns, skip = node.name, init, 1
        else:
            owner = qualname.split(".", 1)[1]
            fns, skip = [node], int("." in owner and not _decorated(node, "staticmethod"))
        for fn in fns:
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                out[f"{owner}({arg.arg})"] = (node.name, arg.arg, i - skip)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out[f"{owner}({arg.arg})"] = (node.name, arg.arg, None)
    return out


def unsupplied(defs, call_map, exempt=UNSET, test_only=TEST_ONLY) -> set:
    """Defaulted parameters, outside ``exempt``, that no recorded call supplies."""
    params = defaulted({q: v for q, v in defs.items() if q.rsplit(".", 1)[-1] not in test_only})
    return {key for key, (callee, name, pos) in params.items() if key not in exempt
            and not any(kws is None or name in kws or (pos is not None and npos > pos)
                        for npos, kws in call_map.get(callee, []))}


def test_every_public_definition_is_reached():
    defining, referring = program()
    dead = unreached(definitions(defining), references(referring))
    assert not dead, sorted(dead)


def test_every_defaulted_parameter_is_supplied():
    defining, referring = program()
    missing = unsupplied(definitions(defining), calls(referring))
    assert not missing, sorted(missing)


def test_allowlists_are_current():
    defining, referring = program()
    defs, refs, call_map = definitions(defining), references(referring), calls(referring)
    for name in TEST_ONLY:
        owners = [q for q in defs if q.rsplit(".", 1)[-1] == name]
        assert owners, f"TEST_ONLY names {name}, which is not defined"
        assert set(owners) & unreached(defs, refs, set(TEST_ONLY) - {name}), (
            f"TEST_ONLY names {name}, which the program now reaches")
    params = defaulted(defs)
    for key in UNSET:
        assert key in params, f"UNSET names {key}, which is not a defaulted parameter"
        assert key in unsupplied(defs, call_map, set(UNSET) - {key}), (
            f"UNSET names {key}, which a caller now supplies")


# -- the audits on planted sources --

PLANTED = '''
def used():
    pass

def only_in_text():
    pass

class Shape:
    def __init__(self, side, colour="red", *, solid=True):
        self.side = side

    @classmethod
    def unit(cls, side=1.0):
        return cls(side, "blue", solid=False)

    def area(self, scale=1.0, units="m"):
        return self.side * scale

def spread(x, y=0, z=0):
    return x + y + z

def caller(args):
    """only_in_text, as a word in a docstring"""
    label = "only_in_text"  # only_in_text in a comment
    used()
    return Shape.unit(2.0).area(), spread(*args)

RESULT = caller([1, 2])
'''


def _planted():
    path = Path("planted.py")
    modules = {path: ast.parse(PLANTED)}
    return definitions(modules), references(modules), calls(modules)


def test_text_mentions_are_not_references():
    defs, refs, _ = _planted()
    assert unreached(defs, refs, exempt=()) == {"planted.only_in_text"}


def test_attribute_references_count():
    defs, refs, _ = _planted()
    assert "planted.Shape.area" in defs and "planted.Shape.area" not in unreached(defs, refs, ())


def test_cls_and_starred_calls_supply_parameters():
    defs, _, call_map = _planted()
    missing = unsupplied(defs, call_map, exempt={}, test_only={})
    assert not {"Shape(colour)", "Shape(solid)", "spread(y)", "spread(z)"} & missing


def test_unsupplied_defaults_are_flagged():
    defs, _, call_map = _planted()
    missing = unsupplied(defs, call_map, exempt={}, test_only={})
    assert missing == {"Shape.area(scale)", "Shape.area(units)"}


PLANTED_PRIVATE = '''
def _helper(x, scale=2, offset=0):
    return scale * x + offset

def _recursive(n):
    return _recursive(n - 1) if n else 0

class _Cache:
    def get(self):
        return _helper(1)

RESULT = _helper(3, 4)
'''


def test_private_helpers_are_audited():
    # a private helper is reached only from outside its own body and the
    # bodies of unreached definitions, and its defaults must be supplied
    path = Path("planted.py")
    modules = {path: ast.parse(PLANTED_PRIVATE)}
    defs = definitions(modules)
    assert unreached(defs, references(modules), exempt=()) == {"planted._recursive",
                                                               "planted._Cache"}
    assert unsupplied(defs, calls(modules), exempt={}, test_only={}) == {"_helper(offset)"}
