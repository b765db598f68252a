"""The README's examples: its CLI tables are what the CLI prints, its claims
ledger matches what its commands report, and its library block runs."""

import json
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


def ledger():
    """(command or None, status) of each row of the README's claims table."""
    section = README.read_text(encoding="utf-8").split("## Claims of the paper")[1].split("\n## ")[0]
    rows = [line.strip("| ").split(" | ") for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == ["claim", "command", "status"]
    return [
        (None if command == "-" else command.strip("`").removeprefix("maskwire "), status)
        for _, command, status in rows[1:]
    ]


def test_readme_claims_ledger_matches_its_commands(capsys):
    rows = ledger()
    kinds = {re.match(r"not yet|out of scope|data|reproduced", status)[0] for _, status in rows}
    assert kinds == {"data", "not yet", "out of scope", "reproduced"}
    for command, status in rows:
        if command is None:
            assert re.fullmatch(r"not yet: ROADMAP item \d+|out of scope: .+", status), status
            continue
        argv = shlex.split(command)
        code = main([*argv, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["summary"]["passed"] is True, command
        if status.startswith("reproduced"):
            ring = re.fullmatch(r"reproduced at \((\d+), (\d+)\)", status).groups()
            assert (argv[argv.index("--q") + 1], argv[argv.index("--s") + 1]) == ring
        else:
            # A data row's status names fields of the summary or the first row.
            found = {**doc["rows"][0], **doc["summary"]}
            pairs = re.findall(r"`(\w+)` (\d+)", status)
            assert pairs and all(found[k] == int(v) for k, v in pairs), status
