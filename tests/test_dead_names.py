"""Every module-level function, class and constant, and every public method,
of the package is used.

A name defined at the top level of a module in ``src/bruhat_degrees``, or a
method without a leading underscore defined in one of its top-level classes,
must be referenced somewhere in ``src``, ``tests``, ``perfbench`` or
``demos``: read as a variable, as an attribute, or imported by name.  Its own
definition does not count.  Dunder names such as ``__all__`` are exempt.  Like
``test_imports.py``, this parses the sources with the standard-library
``ast``, since no linter ships with the test environment.
"""
import ast
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bruhat_degrees"
SEARCHED = [ROOT / d for d in ("src", "tests", "perfbench", "demos")]


def defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not item.name.startswith("_"))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_names(package: dict[str, str], others: list[str]) -> list[str]:
    """The names defined in the package sources (module name -> text) that no
    source, the package's own included, references."""
    trees = {module: ast.parse(text) for module, text in package.items()}
    used = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        used |= referenced_names(tree)
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in defined_names(tree) if name.split(".")[-1] not in used)


def test_detects_a_dead_name():
    package = {"a": "LIMIT = 3\n_SPARE = 4\ndef f():\n    return LIMIT\nclass K:\n    pass\n",
               "__init__": "from .a import f\n__all__ = ['f']\n"}
    assert dead_names(package, ["import a\na.K()\n"]) == ["a._SPARE"]
    package["a"] += "class M:\n    def used(self):\n        return self._own()\n" \
                    "    def spare(self):\n        pass\n    def _own(self):\n        pass\n"
    assert dead_names(package, ["import a\na.K()\na.M().used()\n"]) == [
        "a.M.spare", "a._SPARE"]


def test_no_dead_names():
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text(encoding="utf-8") for d in SEARCHED for p in sorted(d.rglob("*.py"))
              if p.parent != PACKAGE]
    assert dead_names(package, others) == []


def test_public_names_pinned():
    # adding or removing a public name is a deliberate edit of this list
    import bruhat_degrees

    assert sorted(bruhat_degrees.__all__) == [
        "DegreeProfile", "Histogram", "InvalidPermutationError", "LabeledGraph",
        "Permutation", "StrongDescentSet", "ValidationFailure",
        "apply_transposition_left", "brute_force_max", "check_increment_lemma",
        "covered_by", "covers_of", "distribution", "down_degree", "exhaustive_mean",
        "expected_down_degree", "extremal_down_permutations",
        "extremal_total_permutations", "global_descent_count", "harmonic",
        "identity", "is_cover", "is_realizable", "iter_permutations", "length_change",
        "longest_decreasing_subsequence", "longest_element", "ltr_maxima",
        "max_down_degree", "max_total_degree", "monte_carlo_mean", "parse_permutation",
        "rank", "reconstruct", "rth_down_degree", "strong_descent_graph",
        "strong_descent_set", "total_degree", "total_degree_graph",
        "triple_sum_expectation", "turan_graph", "turan_number", "unrank", "up_degree",
        "up_edge_graph",
    ]


def test_star_import_binds_the_api_and_no_module():
    import bruhat_degrees
    from bruhat_degrees import stats

    namespace = {}
    exec("from bruhat_degrees import *", namespace)
    del namespace["__builtins__"]
    public = {name for name, value in vars(bruhat_degrees).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(namespace) == set(bruhat_degrees.__all__) == public
    # the submodules stay attributes of the package
    assert bruhat_degrees.stats is stats
