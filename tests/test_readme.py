"""The README's examples: its CLI tables are what the CLI prints, and its library block runs."""

import re
import shlex
from pathlib import Path

from maskwire import cli, pipeline, preimage
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


def test_readme_scope_table_is_the_module_constants():
    # Its rows read | `command` | `q <= 2^k` | n secrets |, or 10^k pairs.
    rows = re.findall(
        r"^\| `(\w+)` \| `q <= 2\^(\d+)` \| (\d+)(?:\^(\d+))? (secrets|pairs) \|$",
        README.read_text(encoding="utf-8"),
        re.M,
    )
    table = {cmd: (2 ** int(k), int(n) ** int(e or 1), unit) for cmd, k, n, e, unit in rows}
    secrets = (preimage.DEFAULT_SAMPLE_SECRETS, "secrets")
    assert table == {
        "analyze": (preimage.EXHAUSTIVE_SECRET_LIMIT, *secrets),
        "trichotomy": (preimage.EXHAUSTIVE_SECRET_LIMIT, *secrets),
        "sweep": (cli.SWEEP_EXHAUSTIVE_LIMIT, cli.SWEEP_SAMPLE_SECRETS, "secrets"),
        "compose": (pipeline.PIPELINE_EXHAUSTIVE_LIMIT, *secrets),
        "equiv": (cli.EQUIV_EXHAUSTIVE_LIMIT, cli.EQUIV_SAMPLE_PAIRS, "pairs"),
    }


def test_readme_library_block_runs(capsys):
    (code,) = [body for lang, body in fenced_blocks() if lang == "python"]
    exec(compile(code, str(README), "exec"), {})
    entropy, mask_b = capsys.readouterr().out.split()
    assert entropy.startswith("10.700873") and mask_b == "2385"
