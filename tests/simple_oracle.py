"""An independent event-by-event loop for the theta = 0 lattice walk.

It keeps the rule the lockstep kernel must reproduce, one event at a time:
the holding at event k is -log(u_k) / 2d, taken from one array of the
DOM_HOLD stream's first elements (NumPy's log of an array, as the kernel
takes it); the jump is ``bisect_right`` of v_k * total over the site's
cumulative neighbour weights (capped at the last neighbour) with v_k element
k of the DOM_DIR stream; and time, clock and ledger are running sums in
event order.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from continuous_oracle import site_record
from trapclock.chains import (DOM_DIR, DOM_HOLD, ChainKind, JumpSequence,
                              LocalTimeLedger)
from trapclock.rng import Stream


def simple_oracle(model, seed, start, horizon=None, clock_target=None,
                  max_events=None, bound=100_000):
    """(LocalTimeLedger, JumpSequence) of the theta = 0 walk of a lattice
    model from ``start``, stopped at the horizon, right after the jump that
    takes the clock above ``clock_target``, or after ``max_events`` jumps
    (truncated).  A run that needs more than ``bound`` events fails."""
    d = model.d
    n_draw = bound if max_events is None else max_events
    holdings_k = -np.log(Stream(seed, DOM_HOLD).uniforms(0, n_draw)) / (2 * d)
    dir_s = Stream(seed, DOM_DIR)
    records = {}
    x = start
    t = 0.0
    clock = 0.0
    times, holdings, sites = [], [], [x]
    ledger = LocalTimeLedger()
    n = 0
    truncated = False
    final_holding = 0.0
    while True:
        assert n < n_draw, "the oracle's bound is too small for this run"
        if x not in records:
            records[x] = site_record(model, x)
        tau_x, _, cumw, nbrs = records[x]
        h = float(holdings_k[n])
        if horizon is not None and t + h >= horizon:
            final_holding = horizon - t
            ledger.add(x, final_holding)
            t = horizon
            break
        t += h
        ledger.add(x, h)
        clock += h * tau_x
        j = bisect_right(cumw, dir_s.uniform(n) * cumw[-1])
        x = nbrs[min(j, len(nbrs) - 1)]
        times.append(t)
        holdings.append(h)
        sites.append(x)
        n += 1
        if clock_target is not None and clock > clock_target:
            break
        if max_events is not None and n >= max_events:
            truncated = True
            break
    jumps = JumpSequence(ChainKind.CONTINUOUS_J_VSRW, times, holdings, sites,
                         final_holding, t, truncated)
    return ledger, jumps
