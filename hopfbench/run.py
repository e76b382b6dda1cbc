"""End-to-end benchmark of hopfcheck.

Usage, from the root of a checkout:

    python3 hopfbench/run.py --workload report-cyclotomic --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client.  One process runs one job at a time;
each job is a call of ``hopfcheck.cli.run(argv)`` on files generated during
set-up from the seed (see inputs.py).  With ``--trace 0`` the run repeats
passes over the job list for ``--seconds`` seconds (at least two passes)
and reports the end-to-end metrics.  With ``--trace 1`` it runs each job
untraced and then traced in up to three rounds, makes one counted pass and runs
the micro-benchmarks, and reports the per-layer metrics.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import pace
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
MIN_PASSES = 2
SETUP_REPS = 9
TRACE_REPS = 3
TRACE_SECONDS = 50   # no further round is started that would end later
DIGESTS = os.path.join(HERE, "digests.json")
WORKDIR = ".hopfbench"

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import hopfcheck.cli; print(time.perf_counter() - t)")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_program(root: str):
    """Import hopfcheck from the checkout's own src/ directory."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hopfcheck", "__init__.py")):
        raise BenchmarkError(f"no hopfcheck package under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hopfcheck.cli
    import_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(hopfcheck.cli.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        raise BenchmarkError(f"hopfcheck was imported from {where}, not from {src}")
    return import_s


def child_import_s(root: str) -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


# ---------------------------------------------------------------------------
# per-layer metric names, shared by the traced run and BENCHMARK.json
# ---------------------------------------------------------------------------

SPAN_COUNTS = {   # span name -> the aggregates reported for it
    "linalg.solve": ("calls", "self_s", "max_rows"),
    "linalg.nullspace": ("calls", "self_s", "max_rows"),
    "linalg.invert": ("calls", "self_s", "max_rows"),
    "linalg.matmul": ("calls", "self_s", "max_rows"),
    "hopf.compute_antipode": ("calls", "self_s"),
    "hopf.galois_maps": ("calls", "self_s"),
    "hopf.validate": ("calls", "misses", "self_s"),
    "modular.modular_data": ("calls", "self_s"),
    "modular.modular_automorphism": ("calls", "self_s"),
    "modular.left_integral": ("calls", "self_s"),
    "modular.right_integral": ("calls", "self_s"),
    "duality.pair_system": ("calls", "self_s"),
    "duality.build_dual": ("calls", "self_s"),
    "duality.dual_integrals": ("calls", "self_s"),
    "duality.swapped": ("calls", "self_s"),
    "verify.run_all_checks": ("self_s",),
    "verify.check_radford": ("self_s",),
    "verify.check_dual_radford": ("self_s",),
    "verify.biduality_check": ("self_s",),
    "verify.check_modular_adjoints": ("self_s",),
    "verify.check_dual_modular_pairing": ("self_s",),
    "identities.evaluate": ("calls", "self_s", "max_entry_s"),
    "identities.evaluate_side": ("calls", "self_s"),
    "identities.parse_corpus": ("calls", "self_s"),
    "catalog.read_algebra": ("calls", "self_s"),
    "catalog.write_algebra": ("calls", "self_s"),
    "cli.run": ("calls", "self_s"),
}
AGGREGATE_UNITS = {"calls": "count", "self_s": "s", "max_rows": "rows", "misses": "count",
                   "max_entry_s": "s"}


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order."""
    import micro
    specs = [(f"scalars.{op}.count", "count") for op in spans.COUNTED_OPS]
    specs += [(f"scalars.{op}_us.{label}", "us")
              for op in ("add", "mul", "inv") for label, _ in micro.FIELDS]
    for span, aggs in SPAN_COUNTS.items():
        specs += [(f"{span}.{agg}", AGGREGATE_UNITS[agg]) for agg in aggs]
    for op in ("solve", "matmul"):
        specs += [(f"linalg.{op}_ms.{label}", "ms") for label, _ in micro.LINALG_SYSTEMS]
        specs += [(f"linalg.{op}_scalar_ops.{label}", "count") for label, _ in micro.LINALG_SYSTEMS]
    specs += [("trace.untraced_batch_s", "s"), ("trace.traced_batch_s", "s"),
              ("trace.overhead_s", "s"), ("trace.spans", "count")]
    return specs


def span_metrics(stats) -> dict:
    out = {}
    for span, aggs in SPAN_COUNTS.items():
        s = stats.get(span, spans.SpanStats())
        values = {"calls": s.calls, "self_s": s.self_s, "max_rows": s.note_max,
                  "misses": s.note_sum, "max_entry_s": s.max_s}
        for agg in aggs:
            out[f"{span}.{agg}"] = values[agg]
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Ledger:
    """Counts attempted and failed jobs and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, jobs, problems):
        """jobs attempted, problems a list of (job name, reason)."""
        self.attempted += jobs
        self.failed += len(problems)
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def setup(workload_name: str, seed: int, root: str, base: str, ledger: Ledger):
    """Generate the inputs and warm up, SETUP_REPS times; returns the last
    workload, the median rescaled set-up time and the raw times.  One
    repetition is a fresh interpreter's package import, input generation
    and one warm-up job; it is rescaled by the reference loop sampled
    during its in-process part (pace.py)."""
    import workloads
    sampler = pace.Sampler()
    raw, rescaled = [], []
    workload = None
    for rep in range(SETUP_REPS):
        workdir = os.path.join(base, f"setup{rep}")
        os.makedirs(workdir)
        import_s = child_import_s(root)
        t0 = time.perf_counter()
        with sampler:
            workload = workloads.build(workload_name, seed, workdir, trap_corpus())
            warm = workloads.run_job(workloads.warmup_job(seed, workdir))
        raw.append(import_s + time.perf_counter() - t0 - sampler.take_spent()[0])
        rescaled.append(raw[-1] * sampler.scales()[0])
        ledger.add(1, [(warm.name, warm.problem)] if warm.problem else [])
    return workload, statistics.median(rescaled), raw


def trap_corpus() -> str:
    import hopfcheck
    return os.path.relpath(os.path.join(os.path.dirname(hopfcheck.__file__), "corpus",
                                        "convention_traps.ids"))


def recorded_digests(seed: int):
    """Report digests recorded at the default seed; None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def timed_passes(workload, seconds: float):
    """At least MIN_PASSES passes; another only while it is expected to end
    within ``seconds``, so a slow machine makes a run shorter, not longer.
    The reference loop is sampled while each job runs and its time taken
    out of the job's; returns the passes and each pass's (wall, cpu)
    rescaling factors."""
    import workloads
    sampler = pace.Sampler()
    passes, scales = [], []
    start = time.perf_counter()
    last = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        gc.collect()
        result = workloads.PassResult()
        for job in workload.jobs:
            res = workloads.run_job(job, sampler)
            spent_wall, spent_cpu = sampler.take_spent()
            res.wall_s -= spent_wall
            res.cpu_s -= spent_cpu
            result.jobs.append(res)
        passes.append(result)
        scales.append(sampler.scales())
        last = time.perf_counter() - t0
    return passes, scales


def check_passes(passes, workload, seed: int, ledger: Ledger):
    import workloads
    problems = workloads.problems_of(passes, workload.jobs, recorded_digests(seed))
    ledger.add(sum(len(p.jobs) for p in passes), list(problems.values()))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


END_TO_END = {"setup_s": "s", "batch_s": "s", "batch_cpu_s": "s", "peak_rss_mib": "MiB",
              "ok_ratio": "ratio"}


def end_to_end(workload, seed, seconds, setup, ledger, info):
    """Each pass's wall and CPU time is rescaled by the reference loop
    sampled while its jobs ran (pace.py); batch_s and batch_cpu_s are the
    medians of the rescaled passes.  The raw times are printed on the info
    line."""
    setup_s, setup_raw = setup
    passes, scales = timed_passes(workload, seconds)
    check_passes(passes, workload, seed, ledger)
    wall = [p.wall_s * w for p, (w, _) in zip(passes, scales)]
    cpu = [sum(j.cpu_s for j in p.jobs) * c for p, (_, c) in zip(passes, scales)]
    job_wall = {job.name: [p.jobs[j].wall_s * w for p, (w, _) in zip(passes, scales)]
                for j, job in enumerate(workload.jobs)}
    info["passes"] = len(passes)
    info["setup_raw_s"] = setup_raw
    info["pass_wall_raw_s"] = [p.wall_s for p in passes]
    info["pass_wall_s"] = wall
    info["pass_cpu_s"] = cpu
    info["wall_scale"] = [w for w, _ in scales]
    info["median_pass_wall_raw_s"] = statistics.median(info["pass_wall_raw_s"])
    # the first pass pays per-process first-use costs (a memo, a lazy table)
    # that the median over the passes drops
    info["first_pass_wall_s"] = wall[0]
    info["job_wall_s"] = job_wall
    info["slowest_job_s"] = max(statistics.median(times) for times in job_wall.values())
    values = {
        "setup_s": setup_s,
        "batch_s": statistics.median(wall),
        "batch_cpu_s": statistics.median(cpu),
        "peak_rss_mib": peak_rss_mib(),
        # a bounded metric must never read 0, so failed_ratio is reported as its complement
        "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def fastest_batch_s(passes) -> float:
    """Sum over jobs of each job's fastest run across the passes."""
    return sum(min(run.wall_s for run in runs) for runs in zip(*(p.jobs for p in passes)))


def traced(workload, seed, ledger, info, spans_path):
    """Per-layer metrics.  Each job runs untraced and then traced, back to
    back, so the two share the machine's state; over up to TRACE_REPS such
    rounds, the difference of the jobs' fastest runs is the tracing
    overhead.  Spans are kept from the first round.  A counted pass and the
    micro-benchmarks follow."""
    import micro
    import workloads
    tracers, plain, traced_passes = [], [], []
    start = time.perf_counter()
    last = 0.0
    while not tracers or (len(tracers) < TRACE_REPS
                          and time.perf_counter() - start + last <= TRACE_SECONDS):
        t0 = time.perf_counter()
        tracer, plain_pass, traced_pass = spans.Tracer(), workloads.PassResult(), workloads.PassResult()
        for job in workload.jobs:
            gc.collect()
            plain_pass.jobs.append(workloads.run_job(job))
            tracer.job = job.name
            gc.collect()
            with spans.Patches() as patches:
                tracer.install(patches)
                traced_pass.jobs.append(workloads.run_job(job))
        tracers.append(tracer)
        plain.append(plain_pass)
        traced_passes.append(traced_pass)
        last = time.perf_counter() - t0
    info["trace_rounds"] = len(tracers)
    counts = {}
    gc.collect()
    with spans.Patches() as patches:
        spans.install_counters(patches, counts)
        counted = workloads.run_pass(workload)
    check_passes(plain + traced_passes + [counted], workload, seed, ledger)
    tracer = tracers[0]
    tracer.dump(spans_path)
    info["spans_file"] = spans_path
    metrics = {f"scalars.{op}.count": counts[op] for op in spans.COUNTED_OPS}
    metrics.update(micro.scalar_metrics(seed))
    recorded = tracer.spans
    metrics.update(span_metrics(spans.aggregate(recorded)))
    metrics.update(micro.linalg_metrics(seed))
    metrics.update({
        "trace.untraced_batch_s": fastest_batch_s(plain),
        "trace.traced_batch_s": fastest_batch_s(traced_passes),
        "trace.overhead_s": fastest_batch_s(traced_passes) - fastest_batch_s(plain),
        "trace.spans": len(recorded),
    })
    units = dict(per_layer_specs())
    return {name: (metrics[name], unit) for name, unit in units.items()}


def record_digests(workload, seed):
    """Store the text digests of one correct pass at the default seed."""
    import workloads
    if seed != DEFAULT_SEED:
        raise BenchmarkError(f"digests are recorded at the default seed {DEFAULT_SEED}")
    result = workloads.run_pass(workload)
    problems = workloads.problems_of([result], workload.jobs, None)
    if problems:
        raise BenchmarkError(f"not recording digests, jobs failed: {list(problems.values())}")
    digests = recorded_digests(seed)
    for job, res in zip(workload.jobs, result.jobs):
        if job.digest_key:
            digests[job.digest_key] = workloads.digest(res.text)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store report digests of the default seed and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        import_s = load_program(root)
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"have {', '.join(workloads.WORKLOADS)}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    base = os.path.join(WORKDIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    ledger = Ledger()
    try:
        workload, setup_s, setup_raw = setup(args.workload, args.seed, root, base, ledger)
        if args.record_digests:
            record_digests(workload, args.seed)
            return 0
        info = {
            "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
            "import_s": import_s,
            "relabelling": {inp.name: inp.relabelling.as_json()
                            for inp in workload.inputs},
        }
        if args.trace:
            spans_path = os.path.join(WORKDIR, f"spans-{args.workload}-seed{args.seed}.json")
            metrics = traced(workload, args.seed, ledger, info, spans_path)
        else:
            metrics = end_to_end(workload, args.seed, args.seconds, (setup_s, setup_raw),
                                 ledger, info)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    info["failed_ratio"] = ledger.failed / ledger.attempted
    info["problems"] = ledger.problems
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
