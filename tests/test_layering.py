"""Module layering: the package's internal imports form an acyclic graph,
every internal import sits at module level, no module imports a name it
does not use, and only dyadic and stepfn read a Dyadic's numerator."""

import ast
import pathlib

import crosscut

PKG = pathlib.Path(crosscut.__file__).resolve().parent


def internal_imports():
    """(importing module, imported module, at module level) triples."""
    out = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(tree.body)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("crosscut."):
                targets = [node.module.split(".")[1]]
            elif isinstance(node, ast.Import):
                targets = [
                    a.name.split(".")[1] for a in node.names if a.name.startswith("crosscut.")
                ]
            else:
                continue
            out.extend((path.stem, t.split(".")[0], node in top) for t in targets)
    return out


def test_internal_import_graph_is_acyclic():
    graph: dict[str, set[str]] = {}
    for src, dst, _ in internal_imports():
        graph.setdefault(src, set()).add(dst)
    done: set[str] = set()

    def visit(node, path):
        if node in path:
            cycle = path[path.index(node):] + [node]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if node in done:
            return
        for nxt in sorted(graph.get(node, ())):
            visit(nxt, path + [node])
        done.add(node)

    for node in sorted(graph):
        visit(node, [])
    assert "report" in graph["cli"] and "gridset" in graph["report"]


def test_internal_imports_are_module_level():
    inner = [(src, dst) for src, dst, top in internal_imports() if not top]
    assert inner == []


def test_modules_use_every_name_they_import():
    unused = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem == "__init__":  # re-exports the public API
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(
            f"{path.stem}.py:{line} {name}" for name, line in imported.items() if name not in used
        )
    assert unused == []


def test_only_dyadic_and_stepfn_read_numerators():
    # StepFunction.runs is the one reader of step functions as integers;
    # every other module goes through it instead of scaling .num by hand
    readers = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in ("dyadic", "stepfn"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        readers.extend(
            f"{path.stem}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "num"
        )
    assert readers == []
