"""An independent scalar stepper for the discrete jump chain.

It keeps the rule the engines must reproduce, one site at a time on per-site
records computed afresh (``continuous_oracle.site_record``): the jump at
step i is ``bisect_right`` of u_i * total over the site's cumulative
neighbour weights (capped at the last neighbour), with u_i element i of the
DOM_DIR stream, and the mark of step index i is -log of element i of the
DOM_MARK stream.
"""
from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from continuous_oracle import site_record
from trapclock.chains import (DOM_DIR, DOM_MARK, ChainKind, JumpSequence,
                              LocalTimeLedger)
from trapclock.rng import Stream


def discrete_oracle(model, seed, start, horizon, max_events=None):
    """(LocalTimeLedger, JumpSequence) of floor(horizon) steps (at most
    ``max_events``) of the chain started at ``start`` (a model site)."""
    steps = int(math.floor(horizon))
    if max_events is not None:
        steps = min(steps, max_events)
    u_dirs = Stream(seed, DOM_DIR).uniforms(0, steps).tolist()
    marks = (-np.log(Stream(seed, DOM_MARK).uniforms(0, steps + 1))).tolist()
    ledger = LocalTimeLedger()
    x = start
    sites = [x]
    for i in range(steps):
        ledger.add(x, marks[i])
        _, _, cumw, nbrs = site_record(model, x)
        x = nbrs[min(bisect_right(cumw, u_dirs[i] * cumw[-1]), len(nbrs) - 1)]
        sites.append(x)
    ledger.add(x, marks[steps])
    jumps = JumpSequence(ChainKind.DISCRETE_J,
                         np.arange(1, steps + 1, dtype=np.float64),
                         marks[:steps], sites, marks[steps], float(steps))
    return ledger, jumps
