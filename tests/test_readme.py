"""The README's library overview imports only names the package exports."""

import ast
import pathlib
import re

import reprokit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_overview_imports_run():
    overview = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    block = re.search(r"```python\n(.*?)```", overview, re.DOTALL)
    assert block is not None, "no python block under 'Library overview'"
    code = block.group(1)
    exec(compile(code, f"{README}:library overview", "exec"), {})
    top_level = [alias.name for node in ast.walk(ast.parse(code))
                 if isinstance(node, ast.ImportFrom) and node.module == "reprokit"
                 for alias in node.names]
    assert top_level and set(top_level) <= set(reprokit.__all__)
