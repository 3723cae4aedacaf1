"""Every public name has a user outside the tests: the package's own code,
a demo, the README, or the benchmark tracer, which wraps names by name."""

import ast
import re
from pathlib import Path

import seqlab

ROOT = Path(__file__).parents[1]


def tracer_names() -> set[str]:
    """The names `perfbench/tracer.py` wraps: those in SPANS and TAGGER_CLASSES."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    assigned = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    spans = ast.literal_eval(assigned["SPANS"])
    return {name for names in spans.values() for name in names} | set(
        ast.literal_eval(assigned["TAGGER_CLASSES"])
    )


def test_every_public_name_has_a_user_outside_the_tests():
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "seqlab").glob("*.py"))
        if path.name != "__init__.py"
    ]
    shown = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "demos").glob("*.py"))]
    shown.append((ROOT / "README.md").read_text(encoding="utf-8"))
    wrapped = tracer_names()
    unused = []
    for name in seqlab.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_line = re.compile(rf"^[ \t]*(?:def|class)[ \t]+{re.escape(name)}\b.*$", re.MULTILINE)
        in_src = any(word.search(own_line.sub("", text)) for text in sources)
        if not (in_src or name in wrapped or any(word.search(text) for text in shown)):
            unused.append(name)
    assert unused == []
