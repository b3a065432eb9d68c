"""The README's examples run as written and print what the README shows.

Every line of the Quickstart block of the form ``<expression>  # <literal>``
is evaluated after the lines before it, and its value must equal the
literal. Every ``$ skyselect ...`` line of the Command line section runs
through ``cli.main``, and its output must equal the lines shown under it.
"""

import ast
import shlex
from pathlib import Path

from skyselect.cli import main

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


# the files the Command line examples name, as the README describes them
CLI_FILES = {
    "d1.csv": "id,a1,a2\na,1,5\nb,2,2\nc,5,1\nd,4,4\ne,3,3\n",
    "regA.txt": "1 w1 - 3 w2 >= 0\n",
    "band.txt": "w1 >= 0.2\nw1 <= 0.3\n",
}


def _cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ `` line of the Command line section's text blocks, with the
    non-blank lines shown under it up to the next command or block end."""
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start : text.index("\n## ", start)]
    examples: list[tuple[str, list[str]]] = []
    for block in section.split("```text\n")[1:]:
        shown = None
        for line in block[: block.index("```")].splitlines():
            if line.startswith("$ "):
                shown = []
                examples.append((line[2:], shown))
            elif line and shown is not None:
                shown.append(line)
    return examples


def test_command_line_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    for name, content in CLI_FILES.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    examples = _cli_examples()
    for command, expected in examples:
        argv = shlex.split(command)
        if argv[0] == "cat":
            shown = (tmp_path / argv[1]).read_text().splitlines()
        else:
            assert argv[0] == "skyselect", command
            assert main(argv[1:]) == 0, command
            shown = capsys.readouterr().out.splitlines()
        assert shown == expected, command
    assert sum(cmd.startswith("skyselect") for cmd, _ in examples) == 10
