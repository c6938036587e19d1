"""Regenerate the benchmark's stored tables.

    python3 perfbench/record.py tables
        per_layer list of BENCHMARK.json, from perfbench/layers.py
    python3 perfbench/record.py reference SEED...
        one checked call per workload and seed; stores the reference
        values and digests in perfbench/reference.json
    python3 perfbench/record.py facts --tuned SEED...
        machine and input facts in perfbench/facts.json, with the seeds
        the benchmark was tuned on, so a later claim can be rechecked
        on a seed outside them

Reference values come from the code at the time of recording; record
them again only in a change that means to alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from workloads import REL_TOL, WORKLOADS, reference_entry  # noqa: E402

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")
FACTS = os.path.join(HERE, "facts.json")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def tables(_args):
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    bench["per_layer"] = [{"name": n, "unit": u, "better": b} for n, u, b in layers.metric_specs()]
    write_json(BENCHMARK, bench)


def checked_call(workload, seed):
    """(child result, outputs) of one call checked without a reference."""
    directory = os.path.join(run.WORK_DIR, f"record-{workload.name}-{seed}")
    try:
        r = run.Run(workload, seed, 0, directory)
        r.reference = None
        result, got = r.call()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if r.failed:
        raise SystemExit(f"{workload.name} seed {seed}: wrong output, not recorded")
    return result, got


def reference(args):
    doc = {"rel_tol": REL_TOL, "workloads": {}}
    for name, workload in WORKLOADS.items():
        entries = {}
        for seed in args.seeds:
            result, got = checked_call(workload, seed)
            entries[str(seed)] = reference_entry(got)
            print(f"{name} seed {seed}: {result['main_s']:.2f} s", flush=True)
        doc["workloads"][name] = {"seeds": entries}
    write_json(run.REFERENCE, doc)


def cache_sizes():
    """Cache level -> size, read from sysfs for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    entries = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for entry in (e for e in entries if e.startswith("index")):
        def read(name, entry=entry):
            with open(os.path.join(base, entry, name), encoding="ascii") as fh:
                return fh.read().strip()
        if read("type") in ("Unified", "Data"):
            sizes[f"L{read('level')}"] = read("size")
    return sizes


def facts(args):
    import numpy

    child, _ = checked_call(WORKLOADS["solve-2d"], args.tuned[0])
    write_json(FACTS, {
        "tuning_seeds": args.tuned,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": cache_sizes(),
        "GNS_THREADS_in_effect": child["workers"],
        "inputs": {name: w.input_sizes() for name, w in WORKLOADS.items()},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(required=True)
    sub.add_parser("tables").set_defaults(func=tables)
    p_ref = sub.add_parser("reference")
    p_ref.add_argument("seeds", nargs="+", type=int)
    p_ref.set_defaults(func=reference)
    p_facts = sub.add_parser("facts")
    p_facts.add_argument("--tuned", nargs="+", type=int, required=True)
    p_facts.set_defaults(func=facts)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
