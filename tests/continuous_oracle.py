"""An independent event-by-event loop for the variable-speed walk.

It keeps the rule the engines must reproduce, one event at a time on per-site
records computed afresh from the environment or the rate table: the holding
at event k is -log(u_k) / vsrw(x) (NumPy's log, as the engines take it) with
u_k element k of the DOM_HOLD stream, the jump is ``bisect_right`` of
v_k * total over the site's cumulative neighbour weights (capped at the last
neighbour) with v_k element k of the DOM_DIR stream, and time, clock and
ledger are running sums in event order.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from trapclock.chains import (DOM_DIR, DOM_HOLD, ChainKind, JumpSequence,
                              LocalTimeLedger, TableModel)
from trapclock.env import tau_array
from trapclock.rng import Stream


def site_record(model, x):
    """(tau, vsrw rate, cumulative neighbour weights, neighbours) of site x."""
    if isinstance(model, TableModel):
        row = model.rates[x]
        nbrs = [int(j) for j in np.nonzero(row)[0]]
        cumw = []
        acc = 0.0
        for j in nbrs:
            acc += float(row[j])
            cumw.append(acc)
        tau_x = float(model.weights[x])
        return tau_x, tau_x * acc, cumw, nbrs
    cfg = model.cfg
    # the neighbours in the canonical order +e_0, -e_0, +e_1, -e_1, ...
    x = tuple(int(c) for c in x)
    nbrs = [x[:a] + (x[a] + step,) + x[a + 1:]
            for a in range(cfg.d) for step in (1, -1)]
    taus = tau_array(cfg, np.array([x] + nbrs, dtype=np.int64))
    tau_x = float(taus[0])
    cumw = np.cumsum(taus[1:] ** cfg.theta).tolist()
    return tau_x, tau_x ** cfg.theta * cumw[-1], cumw, nbrs


def continuous_oracle(model, seed, start, horizon=None, clock_target=None,
                      max_events=None):
    """(LocalTimeLedger, JumpSequence) of the walk from ``start`` (a model
    site), stopped at the horizon, right after the jump that takes the clock
    above ``clock_target``, or after ``max_events`` jumps (truncated)."""
    dir_s = Stream(seed, DOM_DIR)
    hold_s = Stream(seed, DOM_HOLD)
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
        if x not in records:
            records[x] = site_record(model, x)
        tau_x, rate, cumw, nbrs = records[x]
        h = -float(np.log(hold_s.uniform(n))) / rate
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
