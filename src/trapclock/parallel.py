"""Deterministic process fan-out.

Work is split into contiguous index chunks fixed by (n_total, workers) alone;
results are merged in chunk order, so the reduce is associative-merge
deterministic: the same inputs give the same outputs for any worker count.
Per-item randomness is keyed on absolute indices, never on the partition.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Sequence, Tuple

from .errors import _integer

_N_CHUNKS = 32


def index_chunks(n_total: int, n_chunks: int = _N_CHUNKS) -> List[Tuple[int, int]]:
    """Contiguous [lo, hi) index ranges covering range(n_total).

    The split depends only on n_total (never on the worker count), so chunk
    boundaries — and therefore all per-chunk work — are identical however
    many processes end up serving them.
    """
    n_total = _integer("n_total", n_total, 1)
    target = max(1, min(n_total, n_chunks))
    base = n_total // target
    extra = n_total % target
    out = []
    lo = 0
    for i in range(target):
        hi = lo + base + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


def run_tasks(fn: Callable, args_list: Sequence, workers: int = 1) -> list:
    """Apply fn to each args item, in input order, optionally across processes."""
    workers = _integer("workers", workers, 1)
    if workers == 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as ex:
        return list(ex.map(fn, args_list))
