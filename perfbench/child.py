"""One measured process: import gnslab, then make one `gnslab.cli.main` call.

Usage: python3 perfbench/child.py JOB.json

The job names the checkout root, the argv for main(), whether to trace,
and where to write the result.  The ready time is CLOCK_MONOTONIC, the
clock the parent read just before spawning, so the parent can take the
difference.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.join(job["root"], "src"))
    import gnslab.cli
    from gnslab.parallel import worker_count

    ready_ns = time.monotonic_ns()
    result = {"ready_ns": ready_ns, "gnslab_file": gnslab.cli.__file__,
              "workers": worker_count()}
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter_ns()
        if tracer is None:
            rc = gnslab.cli.main(job["argv"])
        else:
            rc = tracer.call_root(gnslab.cli.main, job["argv"])
        t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(job["spans"])
    result.update(rc=rc, main_s=(t1 - t0) / 1e9, stdout=out.getvalue(),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
