"""trapclock benchmark: end-to-end times per workload and a traced per-layer run.

Usage, from the root of a checkout (no install needed, ``src/`` is used):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for what each runs and why):
conditions-annealed, aging-ensemble, walks-quenched, limits.

``--trace 0`` runs the workload's fixed job again and again, single-process,
until ``--seconds`` have passed (at least three times), each repetition on
inputs from the seed and the repetition number, and reports

* ``wall_s``, ``cpu_s``: median wall and process CPU time of one job;
* ``setup_s``: median time from spawning a fresh interpreter to its being
  ready for the first timed call (importing trapclock, building the
  workload's configuration, one small warm-up job), over several spawns;
* ``peak_rss_mb``: peak resident memory of this process (``ru_maxrss``).

``--trace 1`` runs the job once untraced and once with every trapclock
layer wrapped by ``tracer.Tracer``, and reports per-layer work counts, self
times, latencies and the tracing overhead; then the layer probes of
``probes.py`` and the parallel check (the aging-ensemble job at one and two
workers must write byte-identical CSVs).

Every job's outputs are checked (``Workload.check``).  ``outputs_digest``
hashes the CSVs of repetition 0, whose inputs are exactly the plain CLI's
``--master-seed <seed>``; the traced run checks that tracing leaves it
unchanged.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (operations plus output checks) and ``metrics``.  Everything
else, with the run context, goes to ``.bench_out/BENCH_<workload>_...json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_SPAWNS = 3
MIN_REPS = 3
MAX_MEASURE_S = 90.0


def load_package():
    """Import trapclock from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    if not (src / "trapclock" / "__init__.py").is_file():
        sys.exit(f"bench: no trapclock package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import trapclock
    if Path(trapclock.__file__).resolve().parent != (src / "trapclock").resolve():
        sys.exit(f"bench: imported trapclock from {trapclock.__file__}, not {src}")


# ---------------------------------------------------------------------------
# run context


def run_context() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "trapclock").glob("*.py")))
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "src_trapclock_lines": lines}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# accounting


class Ledger:
    """Operations and output checks attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def add_job(self, result, checks):
        self.attempted += result.items
        self.failed += result.failed_items
        for check in checks:
            self.add_check(*check)

    def add_check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        if not ok or name not in {c[0] for c in self.checks}:
            self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def quartiles(values) -> dict:
    vals = sorted(values)
    if len(vals) < 2:
        return {"q1": vals[0], "median": vals[0], "q3": vals[0]}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"q1": q1, "median": med, "q3": q3}


# ---------------------------------------------------------------------------
# timed run (--trace 0)


def measure_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def timed_run(wl, seconds: float):
    ledger = Ledger()
    walls, cpus = [], []
    started = time.perf_counter()
    while True:
        rep = len(walls)
        t0, c0 = time.perf_counter(), time.process_time()
        result = wl.run(rep)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        ledger.add_job(result, wl.check(result, statistical=rep == 0))
        if rep == 0:
            digest = result.digest()
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and len(walls) >= MIN_REPS) or elapsed >= MAX_MEASURE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [measure_setup(wl.name, wl.seed) for _ in range(SETUP_SPAWNS)]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    details = {
        "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setups},
        "quartiles": {"wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
                      "setup_s": quartiles(setups)},
        "repetitions": len(walls),
        "outputs_digest": digest,
    }
    return metrics, ledger, details


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def percentile_metrics(prefix: str, values_us) -> dict:
    if len(values_us) == 0:
        p50 = p99 = 0.0
    else:
        p50, p99 = (float(v) for v in np.percentile(values_us, [50, 99]))
    return {f"{prefix}.p50": (p50, "us"), f"{prefix}.p99": (p99, "us"),
            f"{prefix}.count": (len(values_us), "count")}


def parallel_check(seed: int, ledger: Ledger) -> dict:
    """The aging-ensemble job at one and at two workers (no more than nproc)."""
    from workloads import AgingEnsemble
    wl = AgingEnsemble(seed, OUT_ROOT)
    workers = min(2, len(os.sched_getaffinity(0)))
    walls, outs = [], []
    for w in (1, workers):
        t0 = time.perf_counter()
        result = wl.run(0, workers=w)
        walls.append(time.perf_counter() - t0)
        ledger.add_job(result, [])
        outs.append({p.name: p.read_bytes() for p in result.csv_files()})
    ledger.add_check(f"aging CSVs identical at workers=1 and workers={workers}",
                     outs[0] == outs[1] and len(outs[0]) > 0)
    return {"parallel.speedup_w2": (walls[0] / walls[1], "ratio"),
            "parallel.wall_w1_s": (walls[0], "s"),
            "parallel.wall_w2_s": (walls[1], "s")}


def traced_run(wl):
    from probes import ROADMAP_BASELINE, flagged, run_probes
    from tracer import COUNTS, LAYERS, Tracer

    ledger = Ledger()
    t0 = time.perf_counter()
    plain = wl.run()
    untraced_s = time.perf_counter() - t0
    ledger.add_job(plain, wl.check(plain, statistical=True))

    tracer = Tracer()
    tracer.install(sys.modules[type(wl).__module__])
    try:
        t0 = time.perf_counter()
        result = wl.run()
        traced_s = time.perf_counter() - t0
    finally:
        tracer.remove()
    ledger.add_job(result, wl.check(result, statistical=False))
    digest = result.digest()
    ledger.add_check("traced outputs equal untraced outputs", digest == plain.digest())

    self_s = tracer.layer_self_seconds()
    other_s = traced_s - sum(self_s.values())
    min_self_s = float(tracer.self_ns().min(initial=0)) * 1e-9
    ledger.add_check("span self times non-negative and within the traced wall",
                     min_self_s >= 0.0 and other_s >= 0.0,
                     f"min span self {min_self_s:.3g} s, other {other_s:.3g} s")

    c = tracer.counts
    metrics = {name: (c[name], "count") for name in COUNTS}
    metrics["env.sites_per_call"] = (
        c["env.sites"] / c["env.tau_array_calls"] if c["env.tau_array_calls"] else 0.0,
        "sites/call")
    metrics["chains.model_cache_sites"] = (tracer.max_cache_sites, "count")
    metrics["cli.bytes_written"] = (result.cli_bytes_written(), "bytes")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["other.self_s"] = (other_s, "s")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.spans"] = (len(tracer.names), "count")
    metrics.update(percentile_metrics("estimators.block_run_us",
                                      tracer.latencies_us("estimators.block_run")))
    metrics.update(percentile_metrics("chains.run_us", tracer.latencies_us(
        "chains.run_vsrw", "chains.run_discrete")))
    spans_path = wl.out_dir / "spans.csv"
    tracer.write_spans(spans_path)
    del tracer

    rates = run_probes()
    off = flagged(rates)
    for name, rate in rates.items():
        metrics[name] = (rate, name.rpartition(".")[2].replace("_per_", "/"))
    metrics["probe.rows_off_baseline"] = (len(off), "count")
    metrics.update(parallel_check(wl.seed, ledger))

    details = {
        "outputs_digest": digest,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "probe_table": [{"probe": name, "measured": rates[name], "roadmap": base,
                         "ratio": rates[name] / base, "flagged": name in off}
                        for name, base in ROADMAP_BASELINE.items()],
    }
    return metrics, ledger, details


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print 'ready' and exit")
    args = parser.parse_args(argv)

    load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, OUT_ROOT)
    wl.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        metrics, ledger, details = traced_run(wl)
    else:
        metrics, ledger, details = timed_run(wl, args.seconds)
    failed_frac = ledger.failed / ledger.attempted
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": run_context(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "failed_frac": failed_frac, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in ledger.checks],
              **details}
    OUT_ROOT.mkdir(exist_ok=True)
    report_path = OUT_ROOT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"context={json.dumps(report['context'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':48s} {failed_frac:>16.6g} ratio "
          f"({ledger.failed} of {ledger.attempted})")
    print(f"  outputs_digest {details['outputs_digest']}")
    for row in details.get("probe_table", []):
        print(f"  probe {row['probe']:46s} {row['measured']:>12.4g} vs ROADMAP "
              f"{row['roadmap']:.3g} ({row['ratio']:.2f}x){' FLAGGED' if row['flagged'] else ''}")
    for name, ok, detail in ledger.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name} {detail}")
    print(f"  report {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
