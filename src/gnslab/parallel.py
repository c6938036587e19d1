"""Optional thread-level parallelism for embarrassingly parallel loops.

The environment variable GNS_THREADS caps the worker count (default 1,
i.e. sequential).  Work items carry their own RNG streams, so results
are independent of the schedule and reports stay byte-identical.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    raw = os.environ.get("GNS_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        return 1
    return max(1, count)


def pmap(fn, items):
    """Map fn over items, preserving order; threads only if GNS_THREADS > 1."""
    items = list(items)
    workers = min(worker_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # imported only when threads run

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
