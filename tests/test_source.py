import ast
import importlib.util
from pathlib import Path

import bjlab

PACKAGE = Path(bjlab.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    """'file:line name' for each name a module imports and never reads.
    __future__ imports and lines marked `# noqa: F401` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports names to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert modules and tests
    assert [hit for path in modules + tests for hit in unused_imports(path)] == []


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def errstates_in_loops(path: Path) -> list[str]:
    """'file:line' for each `with ....errstate(...)` block that a for, while
    or comprehension encloses within its own function."""
    found = []

    def visit(node, looped: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            looped = False
        if looped and isinstance(node, (ast.With, ast.AsyncWith)) and any(
                isinstance(item.context_expr, ast.Call) and "errstate" in (
                    getattr(item.context_expr.func, "attr", None),
                    getattr(item.context_expr.func, "id", None))
                for item in node.items):
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, looped or isinstance(node, _LOOPS))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_no_errstate_is_entered_inside_a_loop():
    # the float-range policy is entered once at a check's or minimization's
    # entry; golden section once re-entered it on every step
    assert [hit for path in sorted(PACKAGE.glob("*.py")) for hit in errstates_in_loops(path)] == []


def referenced_names(paths) -> set[str]:
    """Every name that a module among paths reads: a name, an attribute or
    an import."""
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def top_level_definitions(path: Path) -> list[str]:
    """The names of the functions and classes that a module defines at its
    top level."""
    return [node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def unreferenced_private_definitions(paths) -> list[str]:
    """'file name' for each top-level private function or class that no
    module among paths names: a call, an attribute or an import."""
    referenced = referenced_names(paths)
    return [f"{path.name} {name}" for path in paths for name in top_level_definitions(path)
            if name.startswith("_") and not name.startswith("__")
            and name not in referenced]


def test_no_private_definition_is_left_unreferenced():
    # a scalar twin left behind its stacked kernel, called by nothing
    assert unreferenced_private_definitions(sorted(PACKAGE.glob("*.py"))) == []


def test_no_oracle_is_left_unreferenced():
    # a reference helper left behind when the code it checked moved
    tests = Path(__file__).parent
    referenced = referenced_names(sorted(tests.glob("*.py")))
    assert [name for name in top_level_definitions(tests / "oracles.py")
            if name not in referenced] == []


def config_reads(path: Path) -> set[str]:
    """Every attribute a module reads from a name `cfg`: cfg.<name>."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"}


def test_every_name_perfbench_reads_is_defined():
    # perfbench wraps package functions and reads config attributes from
    # outside the package; a name gone from the package fails every
    # benchmark run, so it fails here first
    spec = importlib.util.spec_from_file_location("spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # standard library only
    missing = []
    for module, attribute in (target for targets in spans.LAYERS.values()
                              for target in targets):
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attribute}")
    reads = config_reads(REPO / "perfbench" / "worker.py")
    assert {"mode", "seed", "tol"} <= reads
    cfg = bjlab.parse_config((REPO / "scripts" / "configs" / "l1_sweep.json")
                             .read_text(encoding="utf-8"))
    assert cfg.mode == "preserver-sweep"
    missing += [f"cfg.{name}" for name in sorted(reads) if not hasattr(cfg, name)]
    assert missing == []
