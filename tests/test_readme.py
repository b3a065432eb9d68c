"""The README's Quickstart runs as written and prints what its comments say.

Every line of the block of the form ``<expression>  # <literal>`` is
evaluated after the lines before it, and its value must equal the literal.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Quickstart (library)"))
    start += len("```python\n")
    return text[start : text.index("```", start)]


def _expression_with_result(line: str):
    """(expression, expected value) when the line is one, else None."""
    code, sep, comment = line.partition("#")
    if not sep or not code.strip():
        return None
    try:
        ast.parse(code.strip(), mode="eval")
        expected = ast.literal_eval(comment.strip())
    except (SyntaxError, ValueError):
        return None
    return code.strip(), expected


def test_quickstart_results_match_their_comments():
    namespace: dict = {}
    statement: list[str] = []
    checked = 0
    for line in _quickstart().splitlines():
        statement.append(line)
        source = "\n".join(statement)
        try:
            ast.parse(source)
        except SyntaxError:
            continue  # a statement spanning several lines
        statement.clear()
        found = _expression_with_result(line) if "\n" not in source else None
        if found is None:
            exec(compile(source, "README", "exec"), namespace)
            continue
        code, expected = found
        assert eval(code, namespace) == expected, code
        checked += 1
    assert not statement
    assert checked == 6
