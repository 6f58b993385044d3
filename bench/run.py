"""Benchmark for qprob, one workload per run, from the root of a source checkout.

    python3 bench/run.py --workload {trajectory,gates,observables,cli} \
        --seed N --seconds S --trace {0,1}

The package is imported from ./src of the checkout; without it the run exits
with code 2 and prints no result. Set-up time is measured first, in fresh
interpreters. The workload then runs whole rounds of documents until S
seconds of wall time have passed. Every time is rescaled to a nominal
machine speed by the gauges in gauge.py. With --trace 0 the last line of
standard output is a JSON object with the end-to-end metrics; with --trace 1
every other round runs under the tracer and the line holds the per-layer
metrics. Results, raw times and traces are also written to .bench_out/ in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer as tracing
from gauge import KernelGauge, StartGauge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 9

clock = time.perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("trajectory", "gates", "observables", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def import_times(stderr_text: str) -> dict:
    """Cumulative import time in ms of each module named in -X importtime output."""
    times = {}
    for line in stderr_text.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                times[name.strip()] = int(cumulative) / 1e3
    return times


def setup_once(code: str, env: dict, scratch: str, traced: bool) -> dict:
    """Start a fresh interpreter that imports qprob and warms it up; time it until it reports ready."""
    program = "import time\nt0 = time.time()\n" + code + "print(repr(t0), flush=True)\n"
    argv = [sys.executable, *(["-X", "importtime"] if traced else []), "-c", program]
    err_path = os.path.join(scratch, "setup-stderr.txt")
    with open(err_path, "wb") as err:
        wall = time.time()
        start = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        line = proc.stdout.readline()
        ready = clock() - start
        proc.stdout.read()
        proc.stdout.close()
        returncode = proc.wait()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        err_text = fh.read()
    if returncode != 0 or not line:
        raise RuntimeError(f"set-up interpreter failed with exit code {returncode}:\n{err_text}")
    imports = import_times(err_text)
    return {
        "start": start,
        "ready_s": ready,
        "interpreter_ms": (float(line) - wall) * 1e3,
        "numpy_ms": imports.get("numpy", 0.0),
        "qprob_ms": imports.get("qprob", 0.0),
    }


def measure_setup(code: str, env: dict, scratch: str, traced: bool, gauge) -> list[dict]:
    setup_once(code, env, scratch, traced)  # writes bytecode caches; not timed
    setups = []
    for _ in range(SETUP_RUNS):
        gauge.measure()
        setups.append(setup_once(code, env, scratch, traced))
    gauge.measure()
    return setups


def tail(times: list[float], percentile: float) -> float:
    """Nearest-rank percentile of the document times."""
    ordered = sorted(times)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)]


def run_rounds(workload, seconds: float, gauge, tracer=None):
    """Whole rounds until the time is up; with a tracer, odd rounds are traced.

    Returns the (start, seconds) of each untraced and each traced document
    and the operation counts.
    """
    plain, traced_docs = [], []
    attempted = failed = unexpected = 0
    round_index = 0
    start = clock()
    while True:
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        for d in workload.make_round(round_index):
            gauge.maybe_measure()
            if traced:
                tracer.doc += 1
            doc_start = clock()
            doc = workload.run(d, traced)
            (traced_docs if traced else plain).append((doc_start, doc.seconds))
            attempted += doc.attempted
            failed += doc.failed
            unexpected += doc.unexpected
            if traced:
                for layer in doc.rejected_layers:
                    if layer in tracer.layer_failed:
                        tracer.note_failure(layer)
        if traced:
            tracer.remove()
        round_index += 1
        if clock() - start >= seconds and (tracer is None or round_index % 2 == 0):
            gauge.measure()
            return plain, traced_docs, attempted, failed, unexpected, round_index


def end_to_end(plain: list[float], setup: list[float], peak_rss_kib: int, tail_percentile: float) -> dict:
    return {
        "docs_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
        "doc_p50_ms": {"value": statistics.median(plain) * 1e3, "unit": "ms"},
        "doc_tail_ms": {"value": tail(plain, tail_percentile) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MiB"},
    }


def per_layer(summary: dict, workload, plain, traced_docs, doc_factor: float, setups, cli_stats) -> dict:
    """Per-layer figures per traced document.

    `plain` and `traced_docs` are rescaled document times. Layer times are
    rescaled by doc_factor, the mean factor of the traced documents, and the
    start-up figures by that of the set-up starts.
    """
    n = len(traced_docs)
    functions = summary["functions"]
    setup_factor = sum(s["scaled_s"] for s in setups) / sum(s["ready_s"] for s in setups)

    def total(prefix: str, field: int) -> float:
        return sum(s[field] for name, s in functions.items() if name == prefix or name.startswith(prefix + "."))

    def ratio(name: str) -> float:
        calls = total(name, 0)
        return len(summary["keys"].get(name, ())) / calls if calls else 0.0

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = (total(layer, 0) / n, "count/doc")
        metrics[f"{layer}.self_ms"] = (total(layer, 2) * 1e3 * doc_factor / n, "ms/doc")
        metrics[f"{layer}.failed"] = (summary["layer_failed"].get(layer, 0) / n, "count/doc")
    metrics.update({
        "evolution.sample_trajectory_ms": (total("evolution.sample_trajectory", 1) * 1e3 * doc_factor / n, "ms/doc"),
        "evolution.evolve_calls": (total("evolution.evolve", 0) / n, "count/doc"),
        "evolution.build_kinetic_ms": (total("evolution.build_kinetic", 1) * 1e3 * doc_factor / n, "ms/doc"),
        "evolution.distinct_hamiltonian_ratio": (ratio("evolution.build_kinetic"), "ratio"),
        "qubit_core.require_physical_calls": (total("qubit_core.require_physical", 0) / n, "count/doc"),
        "tomography_channels.rotation_calls": (total("tomography_channels.rotation_from_unitary", 0) / n, "count/doc"),
        "tomography_channels.distinct_unitary_ratio": (ratio("tomography_channels.rotation_from_unitary"), "ratio"),
        "figures.svg_bytes": (workload.svg_bytes / n, "B/doc"),
        "cli.interpreter_ms": (statistics.median(s["interpreter_ms"] for s in setups) * setup_factor, "ms"),
        "cli.import_numpy_ms": (statistics.median(s["numpy_ms"] for s in setups) * setup_factor, "ms"),
        "cli.import_qprob_ms": (statistics.median(s["qprob_ms"] for s in setups) * setup_factor, "ms"),
        "cli.handler_ms": (cli_stats["handler_s"] * 1e3 * doc_factor / n, "ms/doc"),
        "cli.output_bytes": (cli_stats["output_bytes"] / n, "B/doc"),
        "trace.overhead_ms_per_doc": ((statistics.fmean(traced_docs) - statistics.fmean(plain)) * 1e3, "ms"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one the speed gauge measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qprob", "__init__.py")):
        print(f"bench: no qprob sources under {SRC}; run from the root of a qprob checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    pin_to_one_cpu()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        env = child_env()
        traced = bool(args.trace)
        starts = StartGauge(env, ROOT)
        cls = workloads.WORKLOADS[args.workload]
        gauge = starts if cls is workloads.Cli else KernelGauge()
        if cls is workloads.Cli:
            workload = cls(args.seed, ROOT, scratch, env)
        else:
            workload = cls(args.seed)
        setups = measure_setup(cls.setup_code, env, scratch, traced, starts)
        if cls is not workloads.Cli:
            for d in workload.make_round(-1):
                workload.run(d, False)
        tracer = tracing.Tracer() if traced else None
        plain, traced_docs, attempted, failed, unexpected, rounds = run_rounds(workload, args.seconds, gauge, tracer)
        setup_s = starts.scale([(s["start"], s["ready_s"]) for s in setups])
        for s, scaled in zip(setups, setup_s):
            s["scaled_s"] = scaled
        plain_s = gauge.scale(plain)
        traced_s = gauge.scale(traced_docs)

        if cls is workloads.Cli:
            peak_rss_kib = workload.peak_rss_kib
            summary = {"functions": {}, "layer_failed": {}, "keys": {}}
            handler_s = 0.0
            for path in workload.child_summaries:
                with open(path, encoding="utf-8") as fh:
                    part = json.load(fh)
                tracing.merge_summary(summary, part)
                handler_s += part["handler_s"]
            summary["keys"] = {name: sorted(keys) for name, keys in summary["keys"].items()}
            cli_stats = {"handler_s": handler_s, "output_bytes": workload.output_bytes}
        else:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            summary = tracer.summary() if traced else None
            cli_stats = {"handler_s": 0.0, "output_bytes": 0}

        if traced:
            doc_factor = sum(traced_s) / sum(seconds for _, seconds in traced_docs)
            metrics = per_layer(summary, workload, plain_s, traced_s, doc_factor, setups, cli_stats)
        else:
            metrics = end_to_end(plain_s, setup_s, peak_rss_kib, cls.tail_percentile)
        result = {
            "correct": unexpected == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "rounds": rounds, "docs": len(plain), "traced_docs": len(traced_docs),
            "raw_end_to_end": end_to_end([s for _, s in plain], [s["ready_s"] for s in setups], peak_rss_kib,
                                         cls.tail_percentile),
            "setups": setups, "start_gauge": starts.samples, "gauge": gauge.samples, "docs_raw": plain, "docs_scaled": plain_s,
        }
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + "-result.json", "w", encoding="utf-8") as fh:
            json.dump(dict(details, **result), fh)
        if cls is workloads.Cli and traced:
            with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump(dict(details, **summary), fh)
        elif traced:
            tracer.write(stem + "-spans.json", details)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
