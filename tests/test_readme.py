"""The README's examples: its CLI tables are what the CLI prints, and its library block runs."""

import re
import shlex
from pathlib import Path

from maskwire.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks():
    """(language, body) of every fenced block in the README, in order."""
    return re.findall(r"```(\w*)\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_tables_are_what_the_cli_prints(capsys):
    # A one-command sh block followed by a plain block is a command and its table.
    blocks = fenced_blocks()
    tables = [
        (shlex.split(command)[1:], table.splitlines())
        for (lang, command), (next_lang, table) in zip(blocks, blocks[1:])
        if lang == "sh" and next_lang == "" and command.count("\n") == 1
    ]
    assert sorted(argv[0] for argv, _ in tables) == ["analyze", "entropy", "witness"]
    for argv, table in tables:
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in table if line not in printed] == []


def test_readme_library_block_runs(capsys):
    (code,) = [body for lang, body in fenced_blocks() if lang == "python"]
    exec(compile(code, str(README), "exec"), {})
    entropy, mask_b = capsys.readouterr().out.split()
    assert entropy.startswith("10.700873") and mask_b == "2385"
