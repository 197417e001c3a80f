import doctest
import importlib
from pathlib import Path

import pytest

MODULE_NAMES = ["perm", "bruhat", "graphs", "reconstruct", "extremal", "stats"]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(f"bruhat_degrees.{name}")
    results = doctest.testmod(module)
    assert results.failed == 0


def library_block() -> str:
    """The Python block of the README's ``## Library`` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block():
    # the block runs, and a line `expr  # value` has repr(expr) == value, or
    # repr(expr) starting with the part of value before an ellipsis
    block = library_block()
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        expr, sep, value = line.partition("#")
        if not sep:
            continue
        head, ellipsis, _ = value.strip().partition("...")
        got = repr(eval(expr, namespace))
        assert got.startswith(head) if ellipsis else got == head, line
        checked += 1
    assert checked == 4
