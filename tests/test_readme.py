"""README held to the program: each command example runs through
``cli.run`` with the exit code and output it shows, the Python quick start
prints the digits its comments show, and the exit codes and process-global
names README lists are those of ``cli`` and of the allow-list test."""

import re
import shlex
from pathlib import Path

import pytest

from diracpol import cli
from tests.test_package import PROCESS_GLOBAL_STATE

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
# A console block is one "$ diracpol ... # exit N" line and what it prints:
# stdout on exit 0, the stderr of a failing command otherwise.
EXAMPLES = [body for lang, body in BLOCKS if lang == "console"]


def _list_after(line: str) -> list[str]:
    """The items of the first bullet list after the given README line."""
    lines = README.splitlines()
    start = next(i for i in range(lines.index(line), len(lines)) if lines[i].startswith("- "))
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith(("- ", "  ")))
    return [item for item in lines[start:end] if item.startswith("- ")]


def _example(body: str) -> tuple[list[str], int, str]:
    """The argv after ``diracpol``, the exit code and the output shown."""
    command, shown = body.split("\n", 1)
    match = re.fullmatch(r"\$ diracpol (.*\S)\s+# exit (\d+)", command)
    assert match, command
    return shlex.split(match.group(1)), int(match.group(2)), shown


@pytest.mark.parametrize("example", EXAMPLES, ids=[" ".join(_example(e)[0]) for e in EXAMPLES])
def test_command_example_prints_what_readme_shows(example, capsys):
    argv, code, shown = _example(example)
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    if code == cli._EXIT_OK:
        assert [captured.out, captured.err] == [shown, ""]
    else:
        assert [captured.out, captured.err] == ["", shown]


def test_every_command_has_one_successful_example():
    commands = [argv[0] for argv, code, _ in map(_example, EXAMPLES) if code == cli._EXIT_OK]
    assert sorted(commands) == sorted(["planar", "spatial", "table", "crosscheck", "limits"])


def test_quick_start_prints_the_digits_its_comments_show(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # The first word of each print line's comment: digits that the printed
    # number starts with, then "..." and any exponent it ends with, or the
    # whole line printed.
    shown = [line.split("  # ", 1)[1].split()[0] for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(shown)
    for out, digits in zip(printed, shown):
        head, elided, tail = digits.partition("...")
        if elided:
            assert len(head) > 8 and out.startswith(head) and out.endswith(tail), (out, digits)
        else:
            assert out == digits


def test_exit_codes_are_the_programs():
    items = [re.fullmatch(r"- `(\d+)` (.*)", item) for item in _list_after("Exit codes:")]
    listed = {int(m.group(1)): m.group(2) for m in items}
    codes = {name: value for name, value in vars(cli).items() if name.startswith("_EXIT_")}
    assert sorted(int(m.group(1)) for m in items) == sorted(codes.values())
    meaning = {
        "_EXIT_OK": "success",
        "_EXIT_USAGE": "an argument error",
        "_EXIT_SUPERCRITICAL": "a supercritical charge",
        "_EXIT_CONVERGENCE": "a series that does not converge",
    }
    assert sorted(meaning) == sorted(codes)
    for name, text in meaning.items():
        assert listed[codes[name]].startswith(text), name


def test_process_global_state_is_the_allow_list():
    listed = {re.match(r"- `(\w+\.\w+)`:", item).group(1) for item in _list_after("## Process-global state")}
    assert listed == PROCESS_GLOBAL_STATE
