import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blanks():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is no docstring
        counts on every line"""
        return (
            text
        )
'''
    # import, class, def, the two string lines, return ( , text, )
    assert _load("code_lines").code_lines(source) == 8


def test_code_lines_counts_every_module_of_the_package(capsys):
    code_lines = _load("code_lines")
    assert code_lines.main([]) == 0
    rows = capsys.readouterr().out.splitlines()
    modules = sorted((ROOT / "src" / "bchrom").glob("*.py"))
    assert [row.split()[1] for row in rows[:-1]] == [str(path) for path in modules]
    assert int(rows[-1].split()[0]) == sum(int(row.split()[0]) for row in rows[:-1])


def test_workflow_is_valid_yaml():
    # a ": " inside a plain step name makes the whole workflow unreadable
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert all(step.get("name") or step.get("uses") for step in workflow["jobs"]["test"]["steps"])
