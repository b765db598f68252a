"""Run one workload in this fresh process and print its samples as JSON.

Usage: python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1>

``bench/run.py`` starts this script, so that ``peak_rss_mb`` is the peak
of a process that ran nothing but the workload.  It drives
``maskwire.cli.main`` in-process from the checkout's ``src`` and prints
one JSON line of samples.  With trace 0 it times untraced passes; with
trace 1 it alternates an untraced pass with a traced one and writes the
last traced pass's spans to ``.bench_out/<workload>.spans.csv.gz``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Optional

from metrics import PER_LAYER
from outputs import count_failures
from spans import Tracer, layer_stats
from workloads import OUTPUT_DIR, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / OUTPUT_DIR


def import_cli() -> ModuleType:
    """maskwire.cli from the checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import maskwire
    import maskwire.cli

    if not Path(maskwire.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"maskwire was imported from {maskwire.__file__}, not {SRC}")
    return maskwire.cli


def write_sweep_configs(workload: Workload) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for command in workload.commands:
        if command.sweep_cases:
            cases = [{"q": q, "s": s} for q, s in command.sweep_cases]
            (ROOT / command.argv[2]).write_text(json.dumps({"cases": cases}))


def run_pass(workload: Workload, seed: int, cli: ModuleType) -> list[tuple[Optional[int], str]]:
    """(exit code, stdout) of each command, run in order through ``cli.main``.

    ``cli.main`` is looked up on every call, so a traced pass goes
    through the tracer's wrapper.  A command that raises gets exit code
    None, which the output check rejects.
    """
    outputs = []
    for command in workload.commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(command.args(seed))
            except Exception:
                traceback.print_exc()
                code = None
        outputs.append((code, out.getvalue()))
    return outputs


def timed_pass(workload: Workload, seed: int, cli: ModuleType) -> tuple[float, int]:
    """Wall time of one pass with its output captured and checked, and its failures."""
    start = time.perf_counter()
    failed = count_failures(workload, seed, run_pass(workload, seed, cli))
    return time.perf_counter() - start, failed


def layer_samples(tracer: Tracer, wall: float, untraced_wall: float) -> dict[str, float]:
    stats = layer_stats(tracer.spans)
    values = {
        "modring.ZqElem.created": tracer.created,
        "trace.overhead_ratio": wall / untraced_wall,
        "trace.loop_overhead_s": wall - stats.get("cli.main", {}).get("busy_s", 0.0),
    }
    for metric in PER_LAYER:
        if metric.name not in values:
            span, _, stat = metric.name.rpartition(".")
            values[metric.name] = stats.get(span, {}).get(stat, 0)
    return values


def write_spans(tracer: Tracer, path: Path) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,name,start,end,parent,thread,items,bytes\n")
        for s in tracer.spans:
            parent = "" if s.parent is None else s.parent
            fh.write(
                f"{s.id},{s.name},{s.start:.9f},{s.end:.9f},{parent},"
                f"{s.thread},{s.items},{s.bytes}\n"
            )


def measure(workload: Workload, seed: int, seconds: float, trace: bool, cli: ModuleType) -> dict:
    """Repeat passes until another round would overrun ``seconds``.

    A round is one untraced pass, followed by one traced pass when
    tracing.  At least two rounds run without tracing, or one with it.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    rounds: list[float] = []
    tracer = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, bad = timed_pass(workload, seed, cli)
        attempted += len(workload.commands)
        failed += bad
        if trace:
            with Tracer() as tracer:
                traced_wall, traced_bad = timed_pass(workload, seed, cli)
            attempted += len(workload.commands)
            failed += traced_bad
            for name, value in layer_samples(tracer, traced_wall, wall).items():
                samples[name].append(value)
        else:
            samples["wall_s"].append(wall)
            samples["pairs_per_s"].append(workload.pairs / wall)
            samples["failed_ratio"].append(bad / len(workload.commands))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if len(rounds) >= (1 if trace else 2) and (
            now - start + statistics.median(rounds) > seconds
        ):
            break
    if trace:
        write_spans(tracer, OUT_DIR / f"{workload.name}.spans.csv.gz")
    else:
        # ru_maxrss is in KiB on Linux.
        samples["peak_rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return {"samples": samples, "attempted": attempted, "failed": failed}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv
    workload = WORKLOADS[name]
    cli = import_cli()
    write_sweep_configs(workload)
    result = measure(workload, int(seed), float(seconds), trace == "1", cli)
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
