"""The three workloads: their job lists and the check of every job's output.

Each job is one call of ``hopfcheck.cli.run(argv)`` on a generated file.
A job fails when its exit code is wrong, an expected PASS or FAIL line is
missing, it raises, or its output does not match the checks below.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

from hopfcheck import cli

import inputs

RATIONAL_ALGEBRAS = ("group-z2", "group-z6", "group-s3", "functions-z2", "functions-z6",
                     "functions-s3", "sweedler", "taft-2")
SYNTHESIS_ALGEBRAS = ("sweedler", "group-s3", "functions-s3", "taft-3", "taft-4")
WARMUP_ALGEBRA = "group-z2"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check of its result.

    ``check(code, text)`` returns None when the output is right, otherwise
    the reason it is wrong.
    """

    name: str
    argv: tuple
    check: object
    digest_key: str = ""   # "" for jobs whose text is not digest-checked


@dataclass
class JobResult:
    name: str
    wall_s: float
    cpu_s: float
    text: str
    problem: str | None


@dataclass
class PassResult:
    jobs: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(j.wall_s for j in self.jobs)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _last_line(text: str) -> str:
    lines = text.splitlines()
    return lines[-1] if lines else ""


def expect_report(name: str):
    def check(code, text):
        if code != 0:
            return f"exit code {code}, expected 0"
        if _last_line(text) != f"== summary {name} PASS ==":
            return f"report does not end with a PASS summary: {_last_line(text)!r}"
        return None
    return check


def expect_trap(name: str):
    """The convention-trap corpus must fail: exit 1 with a FAIL line for
    the swapped fourth-power formula."""
    def check(code, text):
        if code != 1:
            return f"exit code {code}, expected 1"
        if not any(line.startswith(f"radford_swapped {name} FAIL") for line in text.splitlines()):
            return "no 'radford_swapped ... FAIL' line"
        return None
    return check


def expect_dual(inp: inputs.Input, out_path: str):
    """The dual file must carry, entry by entry, the transpose of the
    relabelled algebra's known antipode, which checks the synthesized S."""
    expected = {(j, i): str(x) for i, row in enumerate(inp.algebra.antipode.data)
                for j, x in enumerate(row) if not x.is_zero()}

    def check(code, text):
        if code != 0:
            return f"exit code {code}, expected 0"
        if text != f"wrote dual({inp.name}) to {out_path}\n":
            return f"unexpected output {text!r}"
        with open(out_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        got = {(i, j): s for i, j, s in doc.get("antipode", ())}
        if got != expected:
            return "dual antipode differs from the transposed known antipode"
        return None
    return check


def expect_axioms(name: str):
    def check(code, text):
        if code != 0:
            return f"exit code {code}, expected 0"
        lines = text.splitlines()
        if not lines or any(not line.endswith(" PASS") for line in lines):
            return "an axiom or regularity line is not PASS"
        if lines[-1] != f"galois-regularity {name} PASS":
            return f"no regularity PASS line for {name}"
        return None
    return check


def expect_no_antipode(code, text):
    if code != 2:
        return f"exit code {code}, expected 2"
    if "no antipode exists" not in text:
        return f"unexpected error text {text!r}"
    return None


@dataclass
class Workload:
    name: str
    jobs: list
    inputs: list


def build(name: str, seed: int, workdir: str, trap_corpus: str) -> Workload:
    """Generate the inputs of one workload and its job list."""
    ins = []

    def make(alg, strip=False):
        ins.append(inputs.write_input(workdir, seed, alg, strip))
        return ins[-1]

    jobs = []
    if name == "report-cyclotomic":
        taft3 = make("taft-3")
        jobs.append(Job("full-report taft-3", ("full-report", taft3.path),
                        expect_report("taft-3"), "taft-3"))
        jobs.append(Job("check traps taft-3", ("check", taft3.path, "--corpus", trap_corpus),
                        expect_trap("taft-3"), "traps taft-3"))
        taft4 = make("taft-4")
        jobs.append(Job("full-report taft-4", ("full-report", taft4.path),
                        expect_report("taft-4"), "taft-4"))
    elif name == "report-rational":
        for alg in RATIONAL_ALGEBRAS:
            inp = make(alg)
            jobs.append(Job(f"full-report {alg}", ("full-report", inp.path),
                            expect_report(alg), alg))
    elif name == "synthesize-dual":
        for alg in SYNTHESIS_ALGEBRAS:
            inp = make(alg, strip=True)
            out = os.path.join(workdir, f"{alg}.dual.alg")
            jobs.append(Job(f"dual {alg}", ("dual", inp.path, "-o", out),
                            expect_dual(inp, out)))
            jobs.append(Job(f"verify-axioms dual {alg}", ("verify-axioms", out),
                            expect_axioms(f"dual({alg})"), f"axioms dual({alg})"))
        inp = make("idempotent-monoid", strip=True)
        jobs.append(Job("dual idempotent-monoid",
                        ("dual", inp.path, "-o", os.path.join(workdir, "monoid.dual.alg")),
                        expect_no_antipode))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, jobs, ins)


WORKLOADS = ("report-cyclotomic", "report-rational", "synthesize-dual")


def warmup_job(seed: int, workdir: str) -> Job:
    inp = inputs.write_input(workdir, seed, WARMUP_ALGEBRA, False)
    return Job(f"full-report {WARMUP_ALGEBRA}", ("full-report", inp.path),
               expect_report(WARMUP_ALGEBRA))


def run_job(job: Job, around=None) -> JobResult:
    """Run one job; ``around`` is a context manager held while the program
    runs (pace.Sampler), so its time falls inside the job's timing."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with around or contextlib.nullcontext():
            code, text = cli.run(list(job.argv))
    except Exception as exc:  # a crash is a failed job, not a failed run
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return JobResult(job.name, wall, cpu, "", f"raised {type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        problem = job.check(code, text)
    except (OSError, ValueError, TypeError) as exc:
        problem = f"output check raised {type(exc).__name__}: {exc}"
    return JobResult(job.name, wall, cpu, text, problem)


def run_pass(workload: Workload) -> PassResult:
    return PassResult([run_job(job) for job in workload.jobs])


def problems_of(passes, jobs, recorded: dict | None) -> dict:
    """Every failed job execution across passes, keyed by (pass index,
    job index), with its reasons.  Besides each job's own check, every pass
    must print the same text as the first, and when digests are recorded
    for this seed each digest-checked job must match its record."""
    problems = {}
    for p, result in enumerate(passes):
        for j, (job, res) in enumerate(zip(jobs, result.jobs)):
            reasons = [res.problem] if res.problem else []
            if p and res.text != passes[0].jobs[j].text:
                reasons.append("text differs between passes")
            if recorded is not None and job.digest_key \
                    and recorded.get(job.digest_key) != digest(res.text):
                reasons.append("text differs from the recorded digest")
            if reasons:
                problems[(p, j)] = (job.name, "; ".join(reasons))
    return problems
