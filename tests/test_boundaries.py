"""No module of the package reads a private name of another one: each
module's underscored names are its own to change.  No function reads an
underscored attribute of any object but its own `self` or `cls`, so a
class's private state is its own to change too.  The expected-homology
oracle reaches no name of the homology path it is compared against.
Every module parses under the grammar of the oldest Python that
pyproject.toml admits."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gammaspaces"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def module_aliases(tree: ast.Module) -> dict[str, str]:
    """{name bound by an import in this file: the package module it names}."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None),
                                                                             (0, "gammaspaces")):
            pairs = [(alias.asname or alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs = [(alias.asname, alias.name.partition(".")[2]) for alias in node.names
                     if alias.asname and alias.name.startswith("gammaspaces.")]
        else:
            continue
        aliases.update((bound, name) for bound, name in pairs if name in MODULES)
    return aliases


def foreign_private_reads(tree: ast.Module, module: str) -> list[str]:
    """`alias._name` reads through another package module's alias, and
    private names imported from another package module."""
    aliases = module_aliases(tree)
    reads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, module) != module and private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module not in (None, module)):
            reads += [f"{node.module}.{alias.name}" for alias in node.names if private(alias.name)]
    return reads


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_private_name_of_another(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert foreign_private_reads(tree, module) == []


def test_the_scan_sees_module_aliases_and_their_private_names():
    tree = ast.parse("from . import classifying as cb\nfrom gammaspaces import presheaves\n"
                     "from .homology import _add, smith_rows\nimport gammaspaces.simplicial as ss\n"
                     "cb._check_budget, presheaves._canonical_family, ss.validate, cb.__doc__\n")
    assert module_aliases(tree) == {"cb": "classifying", "presheaves": "presheaves",
                                    "ss": "simplicial"}
    assert foreign_private_reads(tree, "cli") == [
        "homology._add", "cb._check_budget", "presheaves._canonical_family"]


def private_attribute_reads(tree: ast.Module) -> list[str]:
    """`expr._name` inside a function, in source order, where expr is not
    the bare name `self` or `cls`."""
    reads = {}
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and private(node.attr) and not (
                        isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                    reads[node.lineno, node.col_offset] = ast.unparse(node)
    return [reads[at] for at in sorted(reads)]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_reads_a_private_attribute_of_another_object(module):
    assert private_attribute_reads(ast.parse((PACKAGE / f"{module}.py").read_text())) == []


def test_the_attribute_scan_sees_other_objects_and_nested_functions():
    tree = ast.parse("class A:\n    def f(self, other):\n"
                     "        return self._x, other._x, self.y._z, self.__dict__\n"
                     "    @classmethod\n    def g(cls):\n        return cls._y, A._y\n"
                     "def h(a):\n    return (lambda b: b._w)(a), a.x\n"
                     "top = A._x\n")
    assert private_attribute_reads(tree) == ["other._x", "self.y._z", "A._y", "b._w"]


# what computes the homology a report compares against `expected_em_homology`
HOMOLOGY_PATH = {"smith_rows", "homology_groups", "HomologyPresentation", "ChainComplex",
                 "normalized_chain_complex"}


def names_reached(tree: ast.Module, entry: str) -> dict[str, set[str]]:
    """{each module-level function that entry reaches through the names it
    reads: the names it reads, bare or as attributes}."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached: dict[str, set[str]] = {}
    todo = [entry]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        nodes = list(ast.walk(functions[name]))
        reached[name] = ({node.id for node in nodes if isinstance(node, ast.Name)}
                         | {node.attr for node in nodes if isinstance(node, ast.Attribute)})
        todo += sorted(reached[name] & functions.keys())
    return reached


def test_the_oracle_reaches_nothing_of_the_homology_path():
    tree = ast.parse((PACKAGE / "classifying.py").read_text())
    reached = names_reached(tree, "expected_em_homology")
    assert {"_cyclic_decomposition", "_cyclic_list_homology", "_kunneth",
            "_canonical_group"} <= reached.keys()
    assert {name: names & HOMOLOGY_PATH for name, names in reached.items()
            if names & HOMOLOGY_PATH} == {}


def test_the_oracle_scan_sees_calls_through_helpers_and_aliases():
    tree = ast.parse("def expected(A):\n    return _helper(A) or hm.HomologyGroup(0)\n"
                     "def _helper(A):\n    return hm.smith_rows(A) or homology_groups(A)\n"
                     "def unreached():\n    return ChainComplex([], [])\n")
    reached = names_reached(tree, "expected")
    assert reached.keys() == {"expected", "_helper"}
    assert reached["_helper"] & HOMOLOGY_PATH == {"smith_rows", "homology_groups"}
    assert not reached["expected"] & HOMOLOGY_PATH


def oldest_python() -> tuple[int, int]:
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text())
    return int(declared[1]), int(declared[2])


@pytest.mark.parametrize("module", MODULES)
def test_module_parses_under_the_oldest_python(module):
    # runs on any interpreter; test_cli.py's TestOldestPython runs the CLI
    # under python3.10 itself, and skips where none is installed
    ast.parse((PACKAGE / f"{module}.py").read_text(), feature_version=oldest_python())


def test_the_oldest_grammar_refuses_newer_syntax():
    assert oldest_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
