"""Report envelope shared by every CLI command, plus the three renderers.

Result rows are the machine-readable payload, plain None, bool, int,
float and str values rendered as they are, and must be byte-identical
across runs with identical inputs; elapsed_ms lives outside the rows so
timing noise never touches them.  CSV keeps rows on stdout and the
summary on stderr so the output pipes cleanly into downstream tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence, Tuple

from ._version import VERSION


@dataclass(frozen=True)
class ReportEnvelope:
    command: str
    parameters: Mapping[str, Any]
    rows: Sequence[Mapping[str, Any]]
    summary: Mapping[str, Any]
    elapsed_ms: float
    tool_version: str = field(default=VERSION)


def format_value(value: Any) -> str:
    """One plain field as text: floats at six decimals, bools lowercase."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_json(env: ReportEnvelope) -> Tuple[str, str]:
    """The bytes of json.dumps(doc, indent=2) + "\n", its rows by the C encoder.

    json.dumps(indent=2) runs json's pure-Python encoder; only the keys
    around the rows still go through it.
    """
    head = json.dumps(
        {"tool_version": env.tool_version, "command": env.command, "parameters": env.parameters},
        indent=2,
    )
    tail = json.dumps({"summary": env.summary, "elapsed_ms": round(env.elapsed_ms, 3)}, indent=2)
    return f"{head[:-2]},\n  \"rows\": {_rows_json(env.rows)},\n{tail[2:]}\n", ""


def _rows_json(rows: Sequence[Mapping[str, Any]]) -> str:
    """rows as json.dumps(doc, indent=2) lays them out one level deep.

    A row holds plain values, whose encoding has no newline, so one C-encoder
    call with a key's indent in its item separator lays out every row; only
    the boundaries between rows are then re-indented.  "[]" and an empty
    row "{}" have no indented body, so they take the pure-Python encoder.
    """
    if not rows or not all(rows):
        return json.dumps(list(rows), indent=2).replace("\n", "\n  ")
    flat = json.dumps(list(rows), separators=(",\n      ", ": "))
    body = flat[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return f"[\n    {{\n      {body}\n    }}\n  ]"


def render_csv(env: ReportEnvelope) -> Tuple[str, str]:
    lines = []
    if env.rows:
        header = list(env.rows[0].keys())
        lines.append(",".join(header))
        for row in env.rows:
            lines.append(",".join(format_value(row[k]) for k in header))
    out = "\n".join(lines) + ("\n" if lines else "")
    summary_bits = [f"{k}={format_value(v)}" for k, v in env.summary.items()]
    err = (
        f"summary: {' '.join(summary_bits)} elapsed_ms={env.elapsed_ms:.1f}\n"
        if summary_bits
        else ""
    )
    return out, err


def render_human(env: ReportEnvelope) -> Tuple[str, str]:
    lines = [f"maskwire {env.command} (v{env.tool_version})"]
    if env.parameters:
        params = "  ".join(
            f"{k}={format_value(v)}" for k, v in env.parameters.items()
        )
        lines.append(f"parameters: {params}")
    if env.rows:
        header = list(env.rows[0].keys())
        table = [header] + [
            [format_value(row[k]) for k in header] for row in env.rows
        ]
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for i, row in enumerate(table):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
    for k, v in env.summary.items():
        lines.append(f"{k}: {format_value(v)}")
    lines.append(f"elapsed_ms: {env.elapsed_ms:.1f}")
    return "\n".join(lines) + "\n", ""


_RENDERERS = {
    "human": render_human,
    "json": render_json,
    "csv": render_csv,
}

FORMATS = tuple(_RENDERERS)


def render(env: ReportEnvelope, fmt: str) -> Tuple[str, str]:
    """(stdout text, stderr text) for the chosen format."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
    return renderer(env)
