"""operaq benchmark: one workload, one seed, one JSON line of metrics.

    python3 qbench/run.py --workload dilation --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The command builds the workload's input
artifacts from the seed (gen.py, numpy only), then runs the workload's
operation list (workloads.py) in this process, round after round, until
--seconds have passed.  Every operation is `operaq.cli.main([...])` on real
--in/--out files.  The first round's reports are checked by checks.py,
which never imports operaq; later rounds must reproduce them byte for byte.

--trace 0 prints the end-to-end metrics; --trace 1 runs two untraced
rounds and one traced round and prints the per-layer metrics (tracer.py).
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


# BLAS threads are capped at the CPUs this process may use; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, HERE)

SETUP_LAUNCHES = 9


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def require_program() -> None:
    """The benchmark measures the checkout's own sources, never an
    installed copy; without them it must fail."""
    if not os.path.isfile(os.path.join(SRC, "operaq", "cli.py")):
        sys.exit(f"qbench: no operaq sources under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing operaq.cli."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import operaq.cli"],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            check=False,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            sys.exit("qbench: a fresh interpreter could not import operaq.cli")
        times.append(elapsed)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    sys.path.insert(0, SRC)
    setup_s = measure_setup() if args.trace == 0 else None

    import gen
    import runner
    import operaq

    if os.path.dirname(os.path.abspath(operaq.__file__)) != os.path.join(SRC, "operaq"):
        sys.exit(f"qbench: imported operaq from {operaq.__file__}, not from {SRC}")

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        fx = gen.generate(args.workload, args.seed, workdir)
        bench = runner.Runner(args.workload, fx, workdir)
        if args.trace:
            result = bench.traced(os.path.join(HERE, "_out"))
        else:
            result = bench.measure(args.seconds)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            result["metrics"]["peak_rss_mib"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
