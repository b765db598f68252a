"""CLI rows pinned to digests recorded from maskwire 0.1.0.

Each case in golden/cli_digests.json runs one command with
``--format json --threads 1`` and hashes its exit code, ``rows`` and
``summary`` (never ``parameters`` or ``elapsed_ms``).  A rewrite that
changes any output byte on these inputs fails here.  Each digest was
recorded from the parent of the change that added it, before any
source edit, and must not be regenerated from the code under test.
golden/render_digests.json does the same for the csv and human
renderings: exit code, stdout and stderr, with elapsed_ms and the sweep's
config path masked.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from maskwire.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_digests.json").read_text())


def digest(code, doc) -> str:
    payload = {"exit": code, "rows": doc["rows"], "summary": doc["summary"]}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_rows_match_golden(name, tmp_path):
    case = GOLDEN[name]
    config = tmp_path / "sweep.json"
    if "config" in case:
        config.write_text(json.dumps(case["config"]))
    argv = [arg.replace("{config}", str(config)) for arg in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json", "--threads", "1"])
    assert digest(code, json.loads(out.getvalue())) == case["sha256"]


RENDERED = json.loads(
    (Path(__file__).parent / "golden" / "render_digests.json").read_text()
)


def rendered(argv, fmt, config) -> tuple:
    """(exit, stdout, stderr) of one run, elapsed_ms and the config path masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt, "--threads", "1"])
    texts = []
    for text in (out.getvalue(), err.getvalue()):
        text = re.sub(r"elapsed_ms([:=] ?)[0-9.]+", r"elapsed_ms\1*", text)
        texts.append(text.replace(str(config), "{config}"))
    return code, *texts


# The JSON digests above hash rows with sorted keys and skip parameters,
# so column order and the parameters line are pinned only here.
@pytest.mark.parametrize("fmt", ["csv", "human"])
@pytest.mark.parametrize("name", sorted(RENDERED))
def test_cli_rendering_matches_golden(name, fmt, tmp_path):
    case = RENDERED[name]
    config = tmp_path / "sweep.json"
    if "config" in case:
        config.write_text(json.dumps(case["config"]))
    argv = [arg.replace("{config}", str(config)) for arg in case["argv"]]
    text = json.dumps(rendered(argv, fmt, config))
    assert hashlib.sha256(text.encode()).hexdigest() == case[fmt]
