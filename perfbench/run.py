"""gnslab benchmark: end-to-end runs of `gns`, and a traced layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve-2d --seed 0 --seconds 30 --trace 0

Workloads (closed loop: one call at a time, single-threaded, GNS_THREADS
left at its default):

  solve-2d      gns solve, 2-D N=64, 128 nodes: the norm-bound solve
  solve-3d      gns solve --save-fields, 3-D N=32, m=2: the convection-bound solve
  verify-suite  gns verify --ineq all: the sampling engine, never the solver

The seed makes the inputs (perfbench/workloads.py).  Every measured call
is a fresh child process (perfbench/child.py) that imports gnslab from
src/ and calls gnslab.cli.main once, as a user's `gns` does.

--trace 0 calls until the seconds are spent, and reports medians over
the calls of
  setup_s      spawn to gnslab imported and ready
  main_s       wall time of the main() call
  peak_rss_mb  peak resident memory of the child
--trace 1 makes one untraced and one traced call of the same input,
whatever --seconds says, and reports the per-layer metrics of
perfbench/layers.py.

Every call is checked (perfbench/workloads.py); a wrong one counts in
`failed`.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS, drift, sha256_bytes  # noqa: E402

RUN_LIMIT_S = 170  # a hung child is killed so the run still ends in time
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")


class Failure(Exception):
    """The benchmark cannot run here (not a wrong program output)."""


def child_env():
    env = dict(os.environ)
    env.pop("GNS_THREADS", None)
    # one thread per call: no BLAS or OpenMP pool competing with it
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(job, directory, deadline):
    """Run one child in directory; returns its result dict with setup_s added.

    The paths the child is given, in its job and in its argv, are relative
    to directory, its working directory: the program's peak memory moves
    with the lengths of the strings it holds (glibc heap layout), and
    absolute paths would tie peak_rss_mb to the seed and the pid.
    """
    os.makedirs(directory, exist_ok=True)
    job = dict(job, root=ROOT, result="result.json", spans="spans.json")
    with open(os.path.join(directory, "job.json"), "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(os.path.join(directory, "stderr.txt"), "wb") as err:
        t_spawn = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), "job.json"],
                                cwd=directory, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=err, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0:
        with open(os.path.join(directory, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise Failure(f"child exited with {code}:\n{tail}")
    with open(os.path.join(directory, job["result"]), encoding="utf-8") as fh:
        result = json.load(fh)
    if not result["gnslab_file"].startswith(os.path.join(ROOT, "src") + os.sep):
        raise Failure(f"imported gnslab from {result['gnslab_file']}, not from src/")
    result["setup_s"] = (result["ready_ns"] - t_spawn) / 1e9
    if job["trace"]:
        with open(os.path.join(directory, job["spans"]), encoding="utf-8") as fh:
            result["spans"] = json.load(fh)
    return result


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed, seconds, directory):
        self.workload = workload
        self.seconds = seconds
        self.dir = directory
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.argv = workload.prepare(seed, os.path.join(self.dir, "inputs"))
        with open(REFERENCE, encoding="utf-8") as fh:
            refs = json.load(fh)["workloads"][workload.name]
        self.reference = refs["seeds"].get(str(seed))
        self.calls = 0
        self.failed = 0
        self.drifted = set()

    def call(self, trace=False):
        """One checked main() call; returns (child result, outputs)."""
        self.calls += 1
        directory = os.path.join(self.dir, f"call{self.calls:03d}")
        out_dir = os.path.join(directory, "out")
        argv = [os.path.relpath(a, directory) if os.path.isabs(a) else a for a in self.argv]
        if self.workload.kind == "solve":
            argv += ["--output", "out"]
        result = spawn({"argv": argv, "trace": trace}, directory, self.deadline)
        try:
            got = self.workload.outputs(result["stdout"], out_dir)
            errors = self.workload.check(result["rc"], got, self.reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            got, errors = {"sha256": {}}, [f"unreadable output: {exc!r}"]
        got["bytes"] = output_digest(result["stdout"], out_dir)
        if errors:
            self.failed += 1
            for e in errors:
                print(f"call {self.calls}: wrong output: {e}", file=sys.stderr)
        self.drifted.update(drift(got, self.reference))
        shutil.rmtree(out_dir, ignore_errors=True)
        return result, got

    def measure(self):
        """End-to-end metrics over as many calls as the seconds allow."""
        begin = time.monotonic()
        setups, mains, rss = [], [], []
        while True:
            t0 = time.monotonic()
            result, _ = self.call()
            setups.append(result["setup_s"])
            mains.append(result["main_s"])
            rss.append(result["maxrss_kb"] * 1024 / 1e6)
            if time.monotonic() - begin + (time.monotonic() - t0) > self.seconds:
                break
        for label, xs, unit in (("setup_s", setups, "s"), ("main_s", mains, "s"),
                                ("peak_rss_mb", rss, "MB")):
            print(f"# {label} ({unit}): median {statistics.median(xs):.4f} of {len(xs)} samples, "
                  f"too few for a tail percentile: {' '.join(f'{x:.4f}' for x in xs)}")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "main_s": (statistics.median(mains), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }

    def trace(self):
        """Per-layer metrics: an untraced then a traced call of one input."""
        plain, plain_got = self.call(trace=False)
        traced, traced_got = self.call(trace=True)
        if traced_got["bytes"] != plain_got["bytes"]:
            self.failed += 1
            print("traced call wrote different report bytes than the untraced call",
                  file=sys.stderr)
        nodes = self.workload.input_sizes()["J"]
        values = layers.layer_values(traced["spans"], nodes,
                                     traced_got.get("iterations") or 0, plain["main_s"])
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        return {name: (values[name], units[name]) for name in units}


def output_digest(stdout, out_dir):
    """sha256 of stdout and of every file the call wrote, by relative path."""
    digest = {"stdout": sha256_bytes(stdout.encode())}
    for base, _, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, out_dir)] = sha256_bytes(fh.read())
    return digest


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gnslab", "cli.py")):
        print(f"error: no gnslab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("error: gnslab sources do not compile", file=sys.stderr)
        return 2
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work)
        metrics = run.trace() if args.trace else run.measure()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    if run.reference is None:
        print(f"# seed {args.seed} has no stored reference; invariant checks only")
    if run.drifted:
        print(f"# output digests differ from the reference: {', '.join(sorted(run.drifted))}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.calls,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
