import re
import shlex
from pathlib import Path

import pytest

from fockmoments.cli import main
from fockmoments.selfcheck import FAULT_ENV

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """(argv, printed lines) of each ``$ fockmoments`` block in README's CLI
    section whose output is shown in full."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        command, _, shown = block.partition("\n")
        if not command.startswith("$ fockmoments ") or "..." in shown:
            continue
        examples.append((shlex.split(command)[2:], shown))
    return examples


EXAMPLES = _cli_examples()


def test_readme_shows_every_printing_command():
    commands = sorted({argv[0] for argv, _ in EXAMPLES})
    assert commands == ["classical", "converge", "moments", "selfcheck"]


@pytest.mark.parametrize(
    "argv, shown", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example_output(capsys, monkeypatch, argv, shown):
    monkeypatch.delenv(FAULT_ENV, raising=False)
    assert main(argv) == 0
    assert capsys.readouterr().out == shown
