"""Every public name of the package has a caller outside the tests.

A public module-level function, class or constant of `src/rainbow_stars`,
or a public method of a public class, must be used somewhere in `src/`,
`scripts/` or `perfbench/` (its test files aside), other than in its own
definition.  A use is a loaded identifier, an attribute, an imported name
or a string constant equal to the name; the last covers lookups by name,
such as the benchmark's tracing of `hopcroft_karp`.

A private module-level function or constant (dunders aside) must likewise
be used in `src/` or `scripts/` outside its own definition, so that a
helper left behind by a refactor fails here too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rainbow_stars"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def public_definitions(tree: ast.Module):
    """(name, node) of the public functions, classes and constants at
    module level, and of the public methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _public(node.name):
                continue
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                if _public(name):
                    yield name, node


def private_definitions(tree: ast.Module):
    """(name, node) of the private functions and constants at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                if _private(name):
                    yield name, node


class _Uses(ast.NodeVisitor):
    """Each use of a name, with the definitions that enclose it."""

    def __init__(self):
        self.enclosing: list[int] = []
        self.uses: list[tuple[str, frozenset[int]]] = []

    def _use(self, name: str) -> None:
        self.uses.append((name, frozenset(self.enclosing)))

    def _scope(self, node) -> None:
        self.enclosing.append(id(node))
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope
    visit_Assign = visit_AnnAssign = _scope

    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Store):
            self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self._use(node.name.rsplit(".", 1)[-1])
        if node.asname:
            self._use(node.asname)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self._use(node.value)


def caller_files(with_perfbench: bool):
    yield from sorted((ROOT / "src").rglob("*.py"))
    yield from sorted((ROOT / "scripts").glob("*.py"))
    if with_perfbench:
        yield from sorted(p for p in (ROOT / "perfbench").glob("*.py")
                          if not p.name.startswith("test_"))


def unused_names(definitions, with_perfbench: bool) -> list[str]:
    """module.name of each definition in the package with no use in the
    caller files outside its own definition."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in caller_files(with_perfbench)}
    uses: dict[str, list[frozenset[int]]] = {}
    for tree in trees.values():
        visitor = _Uses()
        visitor.visit(tree)
        for name, enclosing in visitor.uses:
            uses.setdefault(name, []).append(enclosing)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(trees[path]):
            if not any(id(node) not in enclosing for enclosing in uses.get(name, ())):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_names(public_definitions, with_perfbench=True) == []


def test_every_private_helper_is_used_in_the_package_or_scripts():
    assert unused_names(private_definitions, with_perfbench=False) == []
