"""Executes a workload's operations in this process and times them."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import checks
from workloads import WORKLOADS

from operaq import cli, io, monad


# The --seed of the sampling commands is part of the fixed operation list:
# the workload seed varies the artifacts, never how much work the program
# samples for itself (closure trials, law-suite terms), so runs on different
# workload seeds do the same work.
OP_SEED = 0


def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class OpFailed(Exception):
    """The operation raised or wrote no report."""


def monoidal_compat(argv) -> int:
    """`monoidal-compat`: the public monad.monoidal_compat_check on two
    channel artifacts and one interpretation, reported like a command."""
    ins = [argv[i + 1] for i, a in enumerate(argv) if a == "--in"]
    tols = dict(argv[i + 1].split("=") for i, a in enumerate(argv) if a == "--tol")
    seed = int(argv[argv.index("--seed") + 1])
    out = argv[argv.index("--out") + 1]
    phi_1 = io.decode_channel(io.load_json(ins[0]), ins[0])
    phi_2 = io.decode_channel(io.load_json(ins[1]), ins[1])
    interp = io.decode_interpretation(io.load_json(ins[2]), ins[2])
    report = monad.monoidal_compat_check(
        phi_1, phi_2, interp, trials=int(tols["trials"]), seed=seed
    )
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(io.canonical_json({"result": report, "passed": bool(report["passed"])}))
    return 0 if report["passed"] else 1


class Runner:
    def __init__(self, workload: str, fx, workdir: str):
        self.workload = workload
        self.ops = WORKLOADS[workload]
        self.fx = fx
        self.workdir = workdir
        self.derived = {}  # "@op" -> path of the term file cut from its report
        self.tracer = None

    # -- one operation -----------------------------------------------------

    def argv(self, op) -> list:
        argv = ["--command", op.command]
        for name in op.inputs:
            path = self.derived[name] if name.startswith("@") else self.fx[name]["path"]
            argv += ["--in", path]
        for key, value in op.tols:
            argv += ["--tol", f"{key}={value}"]
        if op.seeded:
            argv += ["--seed", str(OP_SEED)]
        argv += ["--out", self.report_path(op)]
        return argv

    def report_path(self, op) -> str:
        return os.path.join(self.workdir, op.name + ".report.json")

    def run_op(self, op):
        """Returns (exit code, wall seconds, cpu seconds, report bytes)."""
        path = self.report_path(op)
        if os.path.exists(path):
            os.remove(path)
        argv = self.argv(op)
        entry = monoidal_compat if op.command == "monoidal-compat" else cli.main
        if self.tracer is not None:
            self.tracer.op = op.name
        c0, t0 = cpu_now(), time.perf_counter()
        try:
            code = entry(argv)
            error = None
        except Exception as e:  # the operation's own failure, counted below
            code, error = None, f"{type(e).__name__}: {e}"
        elapsed, cpu = time.perf_counter() - t0, cpu_now() - c0
        if error is None and not os.path.exists(path):
            error = "no report written"
        if error is not None:
            raise OpFailed(error)
        with open(path, "rb") as fh:
            data = fh.read()
        if any(name == "@" + op.name for o in self.ops for name in o.inputs):
            self.derived["@" + op.name] = os.path.join(self.workdir, op.name + ".term.json")
            with open(self.derived["@" + op.name], "w", encoding="utf-8") as fh:
                json.dump(json.loads(data)["result"]["term"], fh)
        return code, elapsed, cpu, data

    # -- rounds ------------------------------------------------------------

    def round(self, reference=None):
        """Run every operation once.  Without a reference the reports are
        checked; with one they must equal it byte for byte."""
        times, cpus, reports, failed, problems = {}, 0.0, {}, [], []
        parsed = {}
        for op in self.ops:
            try:
                code, elapsed, cpu, data = self.run_op(op)
            except OpFailed as e:
                failed.append(op.name)
                sys.stderr.write(f"qbench: {op.name} failed: {e}\n")
                continue
            times[op.name] = elapsed
            cpus += cpu
            reports[op.name] = data
            if reference is None:
                report = json.loads(data)
                parsed[op.name] = report.get("result")
                msg = checks.run_check(op, code, report, self.fx, parsed)
            elif reference.get(op.name) != data:
                msg = "report differs from the first round's"
            else:
                msg = None
            if msg:
                problems.append(f"{op.name}: {msg}")
        for p in problems:
            sys.stderr.write(f"qbench: check failed: {p}\n")
        return {"times": times, "cpu": cpus, "reports": reports, "failed": failed,
                "problems": problems}

    def measure(self, seconds: float) -> dict:
        # whole rounds only, and no round that would end past the deadline
        start = time.perf_counter()
        rounds = [self.round()]
        last = time.perf_counter() - start
        while time.perf_counter() - start + last <= seconds:
            t0 = time.perf_counter()
            rounds.append(self.round(rounds[0]["reports"]))
            last = time.perf_counter() - t0
        walls = [sum(r["times"].values()) for r in rounds]
        slowest = [max(r["times"].values()) for r in rounds]
        for r in rounds:
            sys.stderr.write(
                "qbench: round %.3fs, slowest %s\n"
                % (sum(r["times"].values()), max(r["times"], key=r["times"].get))
            )
        return self.summary(rounds, {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "slowest_op_s": {"value": statistics.median(slowest), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu"] for r in rounds), "unit": "s"},
        })

    def traced(self, outdir: str) -> dict:
        import tracer

        # a checked round, a warm untraced round to compare with, a traced round
        rounds = [self.round()]
        rounds.append(self.round(rounds[0]["reports"]))
        tr = self.tracer = tracer.Tracer()
        with tr.installed():
            rounds.append(self.round(rounds[0]["reports"]))
        self.tracer = None
        os.makedirs(outdir, exist_ok=True)
        tr.write_jsonl(os.path.join(outdir, f"trace-{self.workload}.jsonl"))
        warm, traced = (sum(r["times"].values()) for r in rounds[1:])
        sys.stderr.write(
            f"qbench: untraced round {warm:.3f}s, traced round {traced:.3f}s, "
            f"tracing overhead {traced - warm:.3f}s\n"
        )
        return self.summary(rounds, tr.metrics())

    def summary(self, rounds, metrics) -> dict:
        return {
            "correct": not any(r["problems"] for r in rounds),
            "attempted": len(self.ops) * len(rounds),
            "failed": sum(len(r["failed"]) for r in rounds),
            "metrics": metrics,
        }
