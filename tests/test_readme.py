"""The README's examples, checked against the program so they cannot drift."""

import argparse
import io
import re
from contextlib import redirect_stdout

from conftest import GOLDEN_DIR, REPO_ROOT

from stackycones.cli import build_parser

README = (REPO_ROOT / "README.md").read_text()


def _block(after: str, fence: str) -> str:
    """The body of the first fenced block of kind ``fence`` (e.g. "```python")
    after the line ``after``."""
    match = re.search(re.escape(after) + r"\n.*?" + re.escape(fence) + r"\n(.*?)```",
                      README, re.DOTALL)
    assert match, f"no {fence} block after {after!r} in README.md"
    return match.group(1)


def test_verify_example_is_the_golden_output():
    block = _block("Example:", "```")
    command, _, output = block.partition("\n")
    assert command == "$ stackycones verify fixtures/football.json"
    assert output == (GOLDEN_DIR / "football__verify.txt").read_text()


def test_library_use_prints_what_its_comments_say(monkeypatch):
    code = _block("## Library use", "```python")
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected
    monkeypatch.chdir(REPO_ROOT)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_command_list_is_the_parsers():
    block = _block("## Command line", "```sh")
    listed = [line.split()[1] for line in block.splitlines()]
    assert all(line.startswith("stackycones ") for line in block.splitlines())
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert listed == list(subparsers.choices)
