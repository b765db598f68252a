"""maskwire benchmark: time fixed CLI workloads end to end, or trace their layers.

Usage (from the repository root):

    python3 bench/run.py --workload mlkem-cli --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.py`` and metrics in ``metrics.py``.
With ``--trace 0`` the run measures set-up time in fresh interpreters,
then starts ``worker.py`` to time untraced passes; with ``--trace 1`` the
worker alternates untraced and traced passes for the per-layer metrics.
Every metric is printed by name with unit, median, quartiles and sample
count, next to the machine facts.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and the metric medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, FAILED_RATIO, PER_LAYER, Metric
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
TIME_LIMIT_S = 170
# maskwire calls no BLAS routine, but importing numpy starts one OpenBLAS
# thread per CPU; on a shared 2-vCPU host that start-up made single set-up
# probes range from 0.14 s to 0.42 s.  One BLAS thread keeps them steadier.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")

# Set-up: a fresh interpreter until maskwire.cli is imported and the
# parser is built.  CLOCK_MONOTONIC is system-wide, so the probe's
# reading can be compared with the parent's reading before the spawn.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import maskwire.cli\n"
    "maskwire.cli.build_parser()\n"
    "print(time.monotonic())\n"
)


def setup_seconds() -> float:
    start = time.monotonic()
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout) - start


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def parse_size(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) of the samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def print_report(
    workload: Workload,
    args: argparse.Namespace,
    numpy_version: str,
    metrics: list[Metric],
    samples: dict[str, list[float]],
) -> None:
    caches = cache_sizes()
    largest = workload.largest_array_bytes
    print(f"maskwire benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy_version} " + " ".join(f"{k}={v}" for k, v in caches.items()))
    note = ""
    if "L3" in caches and largest < parse_size(caches["L3"]):
        note = " (fits in L3, so computed bytes are not a bandwidth measurement)"
    print(f"workload: {len(workload.commands)} commands and {workload.pairs:,} "
          f"(secret, mask) pairs per pass; largest array {largest:,} bytes{note}")
    print(f"{'metric':44} {'unit':15} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  expectation")
    for metric in metrics:
        median, q1, q3 = summarize(samples[metric.name])
        expect = ""
        if metric.moves:
            expect = f"moves {','.join(metric.moves)} on {','.join(metric.on)}"
            if metric.flat_on:
                expect += f"; flat on {','.join(metric.flat_on)}"
        elif metric.bound is not None:
            expect = f"{metric.better} is better; bound {metric.bound}"
        print(f"{metric.name:44} {metric.unit:15} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(samples[metric.name]):4d}  {expect}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "maskwire" / "cli.py").is_file():
        print(f"bench: no maskwire sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    samples: dict[str, list[float]] = {}
    if not args.trace:
        samples["setup_s"] = [setup_seconds() for _ in range(SETUP_PROBES)]
    worker_argv = [args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *worker_argv],
            cwd=ROOT,
            env=ENV,
            capture_output=True,
            text=True,
            timeout=TIME_LIMIT_S - (time.monotonic() - start),
        )
    except subprocess.TimeoutExpired:
        print("bench: worker ran out of time", file=sys.stderr)
        return 1
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"bench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.splitlines()[-1])
    samples.update(result["samples"])

    reported = list(PER_LAYER) if args.trace else list(END_TO_END)
    shown = reported if args.trace else reported + [FAILED_RATIO]
    print_report(workload, args, result["numpy"], shown, samples)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m.name: {"value": summarize(samples[m.name])[0], "unit": m.unit} for m in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
