"""Closed-loop benchmark of the perpetuities command line.

    python3 bench/run.py --workload drift-suite --seed 1 --seconds 20 --trace 0

One client calls ``perpetuities.cli.main(argv)`` in process and sends the
next request only after the previous one returned. It repeats the
workload's cycle of requests until ``--seconds`` have passed and checks
every output (bench/checks.py). The last line of stdout is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics, taken from
spans recorded around calls into the package's modules
(bench/tracing.py) on cycles that alternate with untraced ones.

The package is imported from ``src/`` next to this directory. Without it
the script exits with status 1 and prints no result.

``--record-references`` runs every workload once at the reference seed
and rewrites bench/references.json; do that only when an output change
is intended.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checks import check_request, compare_summary, digest
from tracing import SPAN_NAMES, Tracer, installed, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"
REFERENCE_SEED = 0
SETUP_PROBES = 5

# thread-split crossover: batch samplers timed at jobs=1 and jobs=2
CROSSOVER_NS = (500, 2000, 8000)
CROSSOVER_REPS = 256  # two forward chunks of 128, one per thread at jobs=2
CROSSOVER_MIN_S = 0.3


@dataclass(frozen=True)
class Workload:
    law: str
    instance: str | None
    requests: tuple  # argv of each request, without --seed and --out


WORKLOADS = {
    # the full Thm 1.1 suite; the only workload that splits work on threads
    "drift-suite": Workload("cauchy", None, (
        ("verify", "--law", "cauchy", "--n", "5000", "--R", "512", "--jobs", "2"),
    )),
    # the alpha=1 boundary law draws log|Q| by bisection; no forward chain
    "slowvar-marginals": Workload("regvar1", None, tuple(
        ("verify", "--theorem", tag, "--law", "regvar1", "--n", "2000",
         "--R", "1000", "--jobs", "1")
        for tag in ("thm15-backward", "pakes119")
    )),
    # whole paths to CSV, limit paths and the J1 decay table
    "path-output": Workload("cauchy", "mixed-sign", (
        ("simulate", "--chain", "forward", "--law", "cauchy", "--n", "2000",
         "--T", "1", "--R", "20"),
        ("simulate", "--chain", "backward", "--law", "cauchy", "--n", "2000",
         "--T", "1", "--R", "20"),
        ("limits", "path", "--kind", "forward", "--c", "1", "--alpha", "1",
         "--T", "1", "--gamma", "0.1", "--R", "20"),
        ("theorem21", "--instance", "mixed-sign"),
    )),
}


def import_cli():
    """The package's cli module, imported from this checkout's src/."""
    if not (SRC / "perpetuities" / "__init__.py").is_file():
        sys.exit(f"error: no perpetuities package under {SRC}")
    sys.path.insert(0, str(SRC))
    import perpetuities.cli

    return perpetuities.cli


def resolve(workload):
    from perpetuities import bundled_instance, preset_law

    preset_law(workload.law)
    if workload.instance is not None:
        bundled_instance(workload.instance)


def probe_setup(name):
    """Child process of ``measure_setup``: import, resolve, report ready."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import_cli()
    resolve(WORKLOADS[name])
    print("ready", flush=True)


def measure_setup(name):
    """Seconds from process start to ready, one sample per fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
    return samples


def machine():
    """nproc, architecture and library versions of this host.

    The CPU model and cache sizes are in bench/README.md: reading them
    here would mean reading files outside the checkout.
    """
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Runner:
    """Runs a workload's request cycles and checks every output.

    Each request writes into a fresh directory. The first cycle's files
    must pass ``check_request``; at the reference seed they are also
    compared with the stored references. Every later cycle, traced or
    not, must reproduce the first cycle's exit codes and file bytes. A
    request that raises or fails a check counts as a failed operation.
    """

    def __init__(self, cli, workload, seed, run_dir, references=None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.references = references
        self.cycles = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None  # per request: ((exit code, digests), stats)
        self.summaries = []

    def _call(self, argv):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            try:
                # looked up per call, so an installed tracing hook applies
                return self.cli.main(argv), sink.getvalue()
            except Exception:  # a crash fails this request, not the run
                traceback.print_exc()
        return None, sink.getvalue()

    @staticmethod
    def _check(argv, code, log):
        if code is None:
            return [f"raised:\n{log}"], {}, {"bytes": 0, "rows": 0}
        return check_request(argv, code, argv[-1])

    def cycle(self, tracer=None):
        """Run every request once; return (wall_s, cpu_s, bytes, rows)."""
        base = self.run_dir / f"cycle{self.cycles}"
        argvs = [
            list(req) + ["--seed", str(self.seed), "--out", str(base / f"req{i}")]
            for i, req in enumerate(self.workload.requests)
        ]
        results = []
        wall, cpu = time.perf_counter(), time.process_time()
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.begin_request(f"{self.cycles}.{i}")
            results.append(self._call(argv))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu

        first = self.first is None
        if first:
            self.first = []
        written = [0, 0]
        for i, (argv, (code, log)) in enumerate(zip(argvs, results)):
            out = argv[-1]
            seen = (code, digest(out) if os.path.isdir(out) else {})
            if first:
                problems, summary, stats = self._check(argv, code, log)
                self.first.append((seen, stats))
                self.summaries.append(summary)
                if self.references is not None:
                    problems += compare_summary(summary, self.references[i], "reference")
            elif seen == self.first[i][0]:
                # the same exit code and bytes as the checked first cycle
                problems, stats = [], self.first[i][1]
            else:
                problems, _, stats = self._check(argv, code, log)
                problems.append("exit code or files differ from the first cycle's")
            written[0] += stats["bytes"]
            written[1] += stats["rows"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"cycle {self.cycles} {' '.join(argv)}: {problems[:5]}")
        shutil.rmtree(base, ignore_errors=True)
        self.cycles += 1
        return wall, cpu, written[0], written[1]


def crossover(seed, problems):
    """jobs=1 over jobs=2 time of the cauchy batch samplers, per n.

    Runs untraced. The two job counts alternate, repeated until the jobs=1
    side took CROSSOVER_MIN_S, and the medians are compared. Both job
    counts must return identical arrays.
    """
    from perpetuities import laws, simulate

    law = laws.preset_law("cauchy")
    samplers = (("forward", simulate.forward_marginal_values),
                ("backward", simulate.backward_marginal_values))
    metrics = {}
    for n in CROSSOVER_NS:
        totals = {1: 0.0, 2: 0.0}
        for side, sampler in samplers:
            times = {1: [], 2: []}
            while sum(times[1]) < CROSSOVER_MIN_S:
                outputs = {}
                for jobs in (1, 2):
                    start = time.perf_counter()
                    outputs[jobs] = sampler(law, n, 1.0, CROSSOVER_REPS, seed, jobs=jobs)
                    times[jobs].append(time.perf_counter() - start)
                if not all((a == b).all() for a, b in zip(outputs[1], outputs[2])):
                    problems.append(f"{side} n={n}: jobs=1 and jobs=2 outputs differ")
            median = {jobs: statistics.median(t) for jobs, t in times.items()}
            metrics[f"simulate.jobs_speedup.{side}.n{n}"] = median[1] / median[2]
            for jobs in totals:
                totals[jobs] += median[jobs]
        metrics[f"simulate.jobs_speedup.n{n}"] = totals[1] / totals[2]
    return metrics


def _share(good, total):
    # a workload that attempts nothing in a layer reports 0
    return good / total if total else 0.0


def layer_metrics(spans, counters, bytes_written, rows_written):
    """Every per-layer quantity one traced cycle yields."""
    calls, busy, self_time = summarize(spans)
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
    for layer in {name.split(".", 1)[0] for name in SPAN_NAMES}:
        m[f"{layer}.self_s"] = self_time[layer]
    for key in ("laws.pairs_drawn", "limits.atoms", "simulate.replications",
                "simulate.steps", "simulate.flagged_replications",
                "verify.samples_tested", "verify.degenerate"):
        m[key] = counters[key]
    m["simulate.useful_share"] = _share(
        counters["simulate.replications"] - counters["simulate.flagged_replications"],
        counters["simulate.replications"])
    attempted = counters["verify.attempted_replications"]
    m["verify.useful_share"] = _share(attempted - counters["verify.degenerate"], attempted)
    m["cli.bytes_written"] = bytes_written
    m["cli.rows_written"] = rows_written
    return m


def run_untraced(runner, seconds):
    walls, cpus = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu, _, _ = runner.cycle()
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() >= deadline:
            break
    return walls, cpus


def run_traced(runner, seconds, trace_path, problems):
    """Crossover, then untraced and traced cycles in turn, within ``seconds``.

    At least one pair of cycles runs. Spans go to ``trace_path``.
    """
    deadline = time.perf_counter() + seconds
    metrics = crossover(runner.seed, problems)
    tracer = Tracer()
    untraced, traced, per_cycle = [], [], []
    with open(trace_path, "w", encoding="utf-8") as fp:
        fp.write('["id", "parent", "request", "name", "start", "end"]\n')
        while True:
            untraced.append(runner.cycle()[0])
            with installed(tracer):
                wall, _, nbytes, nrows = runner.cycle(tracer)
            traced.append(wall)
            per_cycle.append(layer_metrics(tracer.drain(fp), tracer.counters, nbytes, nrows))
            tracer.counters.clear()
            if time.perf_counter() >= deadline:
                break
    for key in per_cycle[0]:
        metrics[key] = statistics.median(c[key] for c in per_cycle)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, len(traced)


def record_references(cli, run_dir):
    refs = {"seed": REFERENCE_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        runner = Runner(cli, workload, REFERENCE_SEED, run_dir)
        runner.cycle()
        if runner.failed:
            sys.exit("error: outputs fail their checks:\n" + "\n".join(runner.problems))
        refs["workloads"][name] = runner.summaries
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(measured, trace, correct, attempted, failed):
    """The final JSON object; a declared metric left unmeasured fails the run."""
    declared = declared_metrics(trace)
    missing = sorted(set(declared) - set(measured))
    if missing:
        sys.exit(f"error: metrics not measured: {missing}")
    metrics = {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", choices=tuple(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--record-references", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not (args.probe_setup or args.record_references):
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        if args.record_references:
            record_references(cli, run_dir)
            return 0
        workload = WORKLOADS[args.workload]
        references = None
        if args.seed == REFERENCE_SEED:
            with open(REFERENCES, encoding="utf-8") as fh:
                references = json.load(fh)["workloads"][args.workload]
        print(f"# machine: {json.dumps(machine(), sort_keys=True)}")
        runner = Runner(cli, workload, args.seed, run_dir, references)
        problems = []
        if args.trace:
            measured, count = run_traced(
                runner, args.seconds, OUT / f"trace-{args.workload}.jsonl", problems)
            print(f"# per-layer medians over {count} traced cycles")
        else:
            setup = measure_setup(args.workload)
            walls, cpus = run_untraced(runner, args.seconds)
            measured = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_share": (runner.attempted - runner.failed) / runner.attempted,
            }
            print(f"# medians over {len(walls)} cycles and {len(setup)} set-ups; "
                  f"fail_share {runner.failed / runner.attempted} share")
            print(f"# cycle wall_s {[round(w, 3) for w in walls]}; "
                  f"set-up s {[round(s, 3) for s in setup]}")
        for name, unit in declared_metrics(args.trace).items():
            print(f"# {name} {measured.get(name)} {unit}")
        for message in runner.problems + problems:
            print(f"problem: {message}", file=sys.stderr)
        correct = runner.failed == 0 and not problems
        print(result_line(measured, args.trace, correct, runner.attempted, runner.failed))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
