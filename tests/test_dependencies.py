"""The package imports numpy and the standard library, nothing else, and uses every private name.

It also draws random numbers only as the protocol module documents, and the
definition of a run in ``spec.py`` reads none of the code that it defines.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import diqkd

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_modules(path: Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(Path(diqkd.__file__).parent.rglob("*.py"))
    found = {path.name: imported_modules(path) for path in files}
    assert "numpy" in found["linalg.py"]  # the walk sees the imports
    outside = {name: sorted(mods - ALLOWED) for name, mods in found.items() if mods - ALLOWED}
    assert outside == {}


def private_definitions(tree: ast.Module):
    """``(name, node)`` for each private name a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and name[1] != "_")


def references(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a bare name or an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_private_name_is_used_in_the_package():
    files = sorted(Path(diqkd.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in files}
    used = sum((references(tree) for tree in trees.values()), Counter())
    defined = [(f, name, node) for f, t in trees.items() for name, node in private_definitions(t)]
    assert any(name == "_CHUNK" for _, name, _ in defined)  # the walk sees the definitions
    # a reference inside its own definition (a recursive call) does not count
    unused = [f"{f}:{name}" for f, name, node in defined if used[name] <= references(node)[name]]
    assert unused == []


# The methods through which numpy draws: every public Generator method, and
# the bit generators' raw words.
DRAWS = {name for name in dir(np.random.Generator) if not name.startswith("_")}
DRAWS = DRAWS - {"bit_generator", "spawn"} | {"random_raw"}


def draw_calls(tree: ast.Module) -> Counter:
    """How often each top-level function or method calls each draw method, ``np.<name>`` aside."""
    found = Counter()
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in (d for d in defs if isinstance(d, ast.FunctionDef)):
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    on_np = isinstance(sub.func.value, ast.Name) and sub.func.value.id == "np"
                    if sub.func.attr in DRAWS and not on_np:
                        found[(fn.name, sub.func.attr)] += 1
    return found


def test_draws_are_raw_words_but_the_documented_generator_calls():
    # every per-pulse and hash-diagonal draw reads random_raw words; the
    # Generator algorithms (which numpy may change between versions) are
    # left only to the selection, the two hash seeds and the noise-gap counts
    files = sorted(Path(diqkd.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in files}
    found = {name: draw_calls(tree) for name, tree in trees.items()}
    assert {name: dict(calls) for name, calls in found.items() if calls} == {
        "hashing.py": {("_window", "random_raw"): 1},
        "protocol.py": {
            ("_bernoulli", "random_raw"): 1,
            ("_pulse_stage", "random_raw"): 3,
            ("_rounds", "random_raw"): 3,
            ("_select", "choice"): 1,
            ("run_protocol", "integers"): 2,
            ("_noise_gap_core", "multinomial"): 1,
            ("_noise_gap_core", "binomial"): 1,
        },
    }
    assert not [path.name for path in files if ".random(" in path.read_text()]



def test_spec_reads_public_names_and_none_of_the_code_it_defines():
    # spec.py, the definition of a run, imports numpy, the standard library and
    # public diqkd names other than the code under test, reads no private name,
    # and draws five Generator.random arrays and no raw words
    spec = Path(__file__).resolve().parent / "spec.py"
    tree = ast.parse(spec.read_text(), filename=str(spec))
    assert imported_modules(spec) <= ALLOWED | {"diqkd"}
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "joint_outcome_pmf" in names  # the walk sees the imports
    defined = {"run_protocol", "label_stage", "outcomes_from_uniforms", "Transcript", "ToeplitzHash"}
    assert {n for n in names | set(references(tree)) if n[0] == "_" or n in defined} == set()
    draws = draw_calls(tree)
    assert draws["spec_run", "random"] == 5 and "random_raw" not in {name for _, name in draws}
