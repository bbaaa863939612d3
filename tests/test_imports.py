"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import ssmprune

PACKAGE = Path(ssmprune.__file__).parent


def _imported(tree, lines):
    """(name, line) for each name bound by an import without a `# noqa`."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def _used(tree):
    """Every name read in the module, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        used = _used(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported(tree, source.splitlines())
                   if name not in used]
    assert not unused, f"unused imports: {unused}"
