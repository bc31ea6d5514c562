"""Closed-loop benchmark of the equihh command line.

    python3 bench/run.py --workload decompose-s3 --seed 1 --seconds 35 --trace 0

One client in one process and one thread calls ``equihh.cli.main``
in-process, one op after another, for ``--seconds`` seconds, and checks
every op's output.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (ops with a wrong output, an
exception or a non-zero exit) and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
ops alternate between untraced and traced, and the metrics are the
per-layer ones plus ``trace.overhead_s``.  Op and set-up times are
rescaled to a fixed machine speed (``speed.py``); the log also prints
the wall times.  See ``bench/NOTES.md``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_OPS = 3  # per kind of op, so a slow machine still yields a median
TAIL_BEYOND = 10

# Set-up of a user's first call: import the package and parse one document
# in a fresh interpreter, rescaled to reference speed.  The set-up lasts
# about 0.1 s, so the machine's speed is sampled every 5 ms during it.
# argv: source dir, benchmark dir, document path.
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import speed
with speed.Sampler(interval=0.005) as sampler:
    import equihh.cli
    from equihh.documents import parse_document
    with open(sys.argv[3], encoding="utf-8") as fh:
        parse_document(fh.read())
print(sampler.scaled())
"""


def tail(samples):
    """(percentile, value): the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it.  A short run cannot support that
    many; then the tail is capped at the median, the highest percentile
    with at least half the other samples beyond it."""
    xs = sorted(samples)
    i = len(xs) - 1 - min(TAIL_BEYOND, len(xs) // 2)
    return 100.0 * (i + 1) / len(xs), xs[i]


def setup_seconds(doc):
    """One set-up sample, timed inside a fresh interpreter."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), str(doc)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout
    return float(out)


@dataclass
class Run:
    plain: list = field(default_factory=list)  # untraced op seconds, rescaled
    traced: list = field(default_factory=list)  # traced op seconds, rescaled
    wall: list = field(default_factory=list)  # wall seconds of every op
    layers: list = field(default_factory=list)  # per-layer metrics of each traced op
    setup: list = field(default_factory=list)  # set-up seconds
    failed: int = 0


def run_ops(cli, workload, docs, seconds, tracer):
    """The closed loop.  The next op starts only if it is expected to end
    within ``seconds``.  Ops cycle through ``docs``; when tracing, an
    untraced op and the traced op after it read the same document.  An
    untraced run takes one set-up sample after each op, so that the
    samples spread over the run as the ops do."""
    run = Run()
    if tracer is None:
        setup_seconds(docs[0])  # the first import in a fresh checkout writes bytecode caches
    start = time.perf_counter()
    op = 0
    while True:
        use_trace = tracer is not None and op % 2 == 1
        if len(run.plain) >= MIN_OPS and (tracer is None or len(run.traced) >= MIN_OPS):
            expected = statistics.median(run.wall)
            if time.perf_counter() - start + expected > seconds:
                break
        doc = docs[(op // 2 if tracer is not None else op) % len(docs)]
        argv = workloads.op_argv(workload, doc)
        gc.collect()  # each op starts from a clean heap, as a fresh CLI process does
        if use_trace:
            tracer.begin_op(op)
            tracer.install()
        problem = None
        with speed.Sampler() as sampler:
            try:
                code, stdout = workloads.call_cli(cli, argv)
            except (Exception, SystemExit):
                problem = traceback.format_exc()
        run.wall.append(sampler.wall)
        if use_trace:
            tracer.uninstall()
            run.layers.append(tracer.end_op())
            run.traced.append(sampler.scaled())
        else:
            run.plain.append(sampler.scaled())
        if problem is None:
            problem = workloads.check_output(workload, code, stdout)
        if problem is not None:
            run.failed += 1
            print(f"op {op} failed: {problem}", file=sys.stderr)
        if tracer is None:
            run.setup.append(setup_seconds(docs[0]))
        op += 1
    return run


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "equihh" / "__init__.py").is_file():
        print(f"no equihh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import equihh.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"equihh imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    docs = workloads.write_documents(cli, workload, args.seed, OUT)
    if workload.example:
        seeded = f"bundled {workload.example}, seed ignored"
    else:
        seeded = f"{len(docs)} documents generated from the seed"
    shown = " ".join(workloads.op_argv(workload, Path(docs[0]).name))
    print(f"workload {workload.name}: {shown} ({seeded})")

    tracer = Tracer() if args.trace else None
    run = run_ops(cli, workload, docs, args.seconds, tracer)
    plain, traced = run.plain, run.traced
    print(f"ops: {len(plain)} untraced, {len(traced)} traced, {run.failed} failed")
    print("op wall seconds: " + " ".join(f"{t:.4f}" for t in run.wall))
    print("untraced op seconds, rescaled: " + " ".join(f"{t:.4f}" for t in plain))

    if tracer is None:
        pct, tail_value = tail(plain)
        print(f"op_s_tail is p{pct:.1f} of {len(plain)} ops")
        print("setup seconds, rescaled: " + " ".join(f"{t:.4f}" for t in run.setup))
        metrics = {
            "op_s": metric(statistics.median(plain), "s"),
            "op_s_tail": metric(tail_value, "s"),
            "setup_s": metric(statistics.median(run.setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        print("traced op seconds, rescaled: " + " ".join(f"{t:.4f}" for t in traced))
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.tsv"
        tracer.dump(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        metrics = {}
        for name in run.layers[0]:
            values = [layer[name] for layer in run.layers]
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
            if unit == "count" and len(set(values)) > 1:
                print(f"count {name} differs between ops: {values}", file=sys.stderr)
            metrics[name] = metric(statistics.median(values), unit)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics["trace.overhead_s"] = metric(overhead, "s")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(plain) + len(traced),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
