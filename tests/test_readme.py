"""The README's library tour is code a reader copies, so it must run."""

import ast
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def tour_source() -> str:
    section = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_tour_runs_and_shows_what_it_prints(tmp_path, monkeypatch):
    """Each comment that shows a value (one starting with "[") is the repr
    of the expression on its line, or on the line above a comment line;
    a trailing ", ...)]" stands for the rest of the repr."""
    source = tour_source()
    lines = source.splitlines()
    monkeypatch.chdir(tmp_path)  # the tour writes its dataset under the working directory
    namespace: dict = {}
    shown = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = repr(eval(code, namespace))
        line = lines[node.end_lineno - 1]
        comment = line.partition("#")[2].strip() if "#" in line else ""
        if not comment and node.end_lineno < len(lines):
            comment = lines[node.end_lineno].strip().removeprefix("#").strip()
        if comment.startswith("["):
            shown += 1
            if comment.endswith(", ...)]"):
                assert value.startswith(comment[: -len("...)]")]), (code, value)
            else:
                assert value == comment, (code, value)
    assert shown >= 4
