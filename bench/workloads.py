"""The four benchmark workloads: inputs from a seed, the timed job, output checks.

Each workload is one pipeline a trapclock user waits on.  A workload object
is built from the benchmark seed, sets itself up (``warm_up``), runs its
fixed job (``run``, the timed part) and checks what the job produced
(``check``).  Every timed job runs with ``--workers 1``.

Repetition ``rep`` of a job uses the master seed ``seed + rep * 1_000_000``,
so repetition 0 is exactly ``--master-seed <seed>`` of the plain CLI, and a
run's median job time averages over inputs as well as over machine noise.
The sizes keep one job near a second or two on a 2-vCPU machine, so that a
run holds many repetitions.

This module binds package functions by name, like any consumer module of
the package; the tracer wraps the names bound here too.

Output checks come in two kinds.  Exact ones (orderings that hold by
construction, the ledger identity, exit codes) run on every repetition.
Statistical ones run on repetition 0, with a band of ``Z_BAND`` standard
errors, never narrower than the matching acceptance criterion's band: a
benchmark round makes hundreds of these checks, and a 3-SE band would fail
a correct program in most rounds.  The bands were fixed before any measured
run and are not tuned to pass.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from trapclock.chains import ChainKind, LatticeModel, TrajectoryConfig, run_vsrw
from trapclock.cli import main as cli_main
from trapclock.clock import build_clock
from trapclock.env import EnvConfig
from trapclock.errors import TrapclockError
from trapclock.limits import fk_msd
from trapclock.rng import ENV_FANOUT, TRAJ_FANOUT, hash_words
from trapclock.stats import slope_and_se

ALPHA = 0.5
TAIL_US = (0.25, 0.5, 1.0, 2.0, 4.0)
AGING_RHOS = (0.5, 1.0, 3.0)
FK_GRID = np.exp(np.linspace(math.log(1.0), math.log(100.0), 6))


@dataclass
class JobResult:
    """What one run of a job did: operations attempted and failed, output files."""

    items: int
    failed_items: int
    out_dir: Path
    data: dict = field(default_factory=dict)

    def csv_files(self) -> List[Path]:
        return sorted(self.out_dir.glob("*.csv"))

    def digest(self) -> str:
        """SHA-256 over "<name> <sha256>" lines of the job's CSVs, in name order.

        For CLI jobs this equals the digest of the ``files`` map in the CLI's
        own manifest.json, so a plain CLI run with the same seed reproduces it.
        """
        lines = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n"
                        for p in self.csv_files())
        return hashlib.sha256(lines.encode()).hexdigest()

    def cli_bytes_written(self) -> int:
        """Bytes of the CSVs the CLI listed in its manifest (0 without a CLI)."""
        manifest = self.out_dir / "manifest.json"
        if not manifest.is_file():
            return 0
        files = json.loads(manifest.read_text())["files"]
        return sum((self.out_dir / name).stat().st_size for name in files)


Check = Tuple[str, bool, str]

REP_SEED_STRIDE = 1_000_000
Z_BAND = 5.0


def _read_csv(path: Path) -> List[Dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def loglog_slope(x, values, std_errors) -> Tuple[float, float]:
    """Least-squares slope of log(values) on log(x), with a standard error
    that adds the Monte-Carlo error of each value (se/value, delta method,
    carried through the least-squares weights) to the regression's own."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    slope, reg_se = slope_and_se(lx, np.log(values))
    w = (lx - lx.mean()) / ((lx - lx.mean()) ** 2).sum()
    rel = np.asarray(std_errors, dtype=np.float64) / np.asarray(values, dtype=np.float64)
    return slope, math.hypot(reg_se, float(np.sqrt((w * w * rel * rel).sum())))


def _exit_check(result) -> List[Check]:
    rc = result.data["exit"]
    return [("cli exit 0", rc == 0, f"exit {rc}")]


class Workload:
    name = ""

    def __init__(self, seed: int, out_root: Path):
        self.seed = int(seed)
        self.out_dir = out_root / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def master(self, rep: int) -> int:
        return self.seed + rep * REP_SEED_STRIDE

    def warm_up(self) -> None:
        """A small job on the same code path, so the timed jobs start warm."""
        raise NotImplementedError

    def run(self, rep: int = 0) -> JobResult:
        raise NotImplementedError

    def check(self, result: JobResult, statistical: bool) -> List[Check]:
        raise NotImplementedError

    def _cli(self, argv, items: int, out_dir: Path) -> JobResult:
        """Run one CLI command in-process; a non-zero exit fails every item."""
        rc = cli_main(list(argv) + ["--out", str(out_dir)])
        return JobResult(items, items if rc != 0 else 0, out_dir, {"exit": rc})


# ---------------------------------------------------------------------------


class ConditionsAnnealed(Workload):
    """``trapclock conditions``, annealed: every trajectory draws a fresh
    environment and every block run is 2 steps long, so nothing is cached
    and time goes to per-block overhead in estimators, the discrete loop and
    per-site hashing."""

    name = "conditions-annealed"
    N_TRAJ = 10

    def argv(self, master: int, n_traj: int) -> List[str]:
        return ["conditions", "--master-seed", str(master),
                "--workers", "1", "--d", "2", "--alpha", str(ALPHA),
                "--theta", "0", "--n-list", "10000", "--t-list", "1",
                "--u-list", ",".join(str(u) for u in TAIL_US),
                "--eps-list", "0.1", "--with-sigma", "1", "--mode", "annealed",
                "--kind", "DiscreteJ", "--n-traj", str(n_traj)]

    def warm_up(self) -> None:
        self._cli(self.argv(self.seed, 1), 3, self.out_dir / "warmup")

    def run(self, rep: int = 0) -> JobResult:
        # three estimator passes (nu, sigma, m_eps) of n_traj trajectories
        return self._cli(self.argv(self.master(rep), self.N_TRAJ),
                         3 * self.N_TRAJ, self.out_dir / "job")

    def check(self, result: JobResult, statistical: bool) -> List[Check]:
        if result.data["exit"] != 0:
            return _exit_check(result)
        rows = _read_csv(result.out_dir / "conditions.csv")
        nu = [r for r in rows if r["name"] == "Nu_t"]
        nu_v = [float(r["value"]) for r in nu]
        sig_v = [float(r["value"]) for r in rows if r["name"] == "Sigma_t"]
        # nu and sigma share trajectories and block runs across thresholds,
        # and sigma's first replica is nu's block run: both orderings are exact
        out = [
            ("nu non-increasing in u",
             len(nu_v) == len(TAIL_US) and all(b <= a for a, b in zip(nu_v, nu_v[1:])),
             f"nu = {nu_v}"),
            ("sigma <= nu",
             len(sig_v) == len(nu_v) and all(s <= v for s, v in zip(sig_v, nu_v)),
             f"sigma = {sig_v}"),
        ]
        if statistical:
            # thresholds no block run exceeded carry no slope information
            pos = [(u, float(r["value"]), float(r["std_error"]))
                   for u, r in zip(TAIL_US, nu) if float(r["value"]) > 0]
            if len(pos) < 3:
                out.append(("tail slope near -alpha", False,
                            f"only {len(pos)} thresholds with nu > 0"))
            else:
                slope, se = loglog_slope(*zip(*pos))
                band = max(0.1, Z_BAND * se)  # criterion 07: -alpha +- 0.1
                out.append(("tail slope near -alpha", abs(slope + ALPHA) <= band,
                            f"slope {slope:.4f}, band -{ALPHA} +- {band:.4f}"))
        return out


class AgingEnsemble(Workload):
    """``trapclock aging`` at s = 1e5: long single trajectories on the theta = 0
    time-vectorized walk, with bulk tau_array, build_clock and window_stats;
    estimators and both per-event loops stay idle."""

    name = "aging-ensemble"
    N_ENV = 300
    N_TRAJ = 2
    S = 100_000

    def argv(self, master: int, n_env: int, n_traj: int, s: int, rhos,
             workers: int = 1) -> List[str]:
        return ["aging", "--master-seed", str(master),
                "--workers", str(workers), "--d", "2", "--alpha", str(ALPHA),
                "--theta", "0", "--s-list", str(s),
                "--rho-list", ",".join(str(r) for r in rhos),
                "--n-env", str(n_env), "--n-traj", str(n_traj)]

    def warm_up(self) -> None:
        self._cli(self.argv(self.seed, 2, 2, 1000, (1.0,)), 4,
                  self.out_dir / "warmup")

    def run(self, rep: int = 0, workers: int = 1) -> JobResult:
        """The job at ``workers`` processes (the parallel check uses 2)."""
        items = self.N_ENV * self.N_TRAJ * len(AGING_RHOS)
        res = self._cli(self.argv(self.master(rep), self.N_ENV, self.N_TRAJ,
                                  self.S, AGING_RHOS, workers),
                        items, self.out_dir / f"job_w{workers}")
        if res.data["exit"] == 0:
            c1 = [r for r in _read_csv(res.out_dir / "aging.csv") if r["kind"] == "C1"]
            res.failed_items = sum(int(r["excluded"]) for r in c1)
        return res

    def check(self, result: JobResult, statistical: bool) -> List[Check]:
        if result.data["exit"] != 0:
            return _exit_check(result)
        rows = _read_csv(result.out_dir / "aging.csv")
        cell = {(r["kind"], float(r["rho"])): r for r in rows}
        out = []
        for rho in AGING_RHOS:
            c1, c2, c3 = (float(cell[(k, rho)]["estimate"]) for k in ("C1", "C2", "C3"))
            out.append((f"C3 <= min(C1, C2) at rho={rho}", c3 <= min(c1, c2),
                        f"C1 {c1:.4f} C2 {c2:.4f} C3 {c3:.4f}"))
        if statistical:
            c1 = cell[("C1", 1.0)]
            est, se = float(c1["estimate"]), float(c1["std_error"])
            target = float(c1["arcsine_target"])
            band = max(0.1, Z_BAND * se)  # criterion 10: 0.5 +- 0.1
            out.append(("C1(rho=1) near arcsine target", abs(est - target) <= band,
                        f"C1 {est:.4f}, target {target:.4f} +- {band:.4f}"))
        return out


class WalksQuenched(Workload):
    """theta = 0.5 walks in one environment through build_clock and the
    ledger identity: the only workload on the general per-event engine, and
    the trajectories share one LatticeModel, so its per-site cache is hit."""

    name = "walks-quenched"
    N_TRAJ = 50
    N_EVENTS = 10_000

    def env(self, master: int) -> EnvConfig:
        # the package's own fan-out from a master seed to environment seeds
        return EnvConfig(d=2, alpha=ALPHA, theta=0.5,
                         env_seed=hash_words(master, ENV_FANOUT, 0))

    def _walks(self, env: EnvConfig, n_traj: int, n_events: int):
        """Criterion 02 on one shared model: run, build the clock, and
        recompute it from the local-time ledger."""
        model = LatticeModel(env)
        rows, failed = [], 0
        for j in range(n_traj):
            tcfg = TrajectoryConfig(hash_words(env.env_seed, TRAJ_FANOUT, j),
                                    ChainKind.CONTINUOUS_J_VSRW)
            try:
                ledger, jumps = run_vsrw(model, tcfg, max_events=n_events)
                clock_val = build_clock(model, jumps).values[-1]
            except TrapclockError as exc:
                failed += 1
                rows.append((j, "", "", "", type(exc).__name__))
                continue
            recomputed = sum(model.tau(site) * ell for site, ell in ledger.items())
            rel = abs(clock_val - recomputed) / recomputed
            rows.append((j, len(jumps), repr(float(clock_val)),
                         repr(float(recomputed)), repr(float(rel))))
        return rows, failed

    def warm_up(self) -> None:
        self._walks(self.env(self.seed), 2, 1000)

    def run(self, rep: int = 0) -> JobResult:
        rows, failed = self._walks(self.env(self.master(rep)), self.N_TRAJ,
                                   self.N_EVENTS)
        out_dir = self.out_dir / "job"
        _write_csv(out_dir / "walks.csv",
                   ("traj", "events", "clock", "ledger_clock", "rel_err_or_error"), rows)
        return JobResult(self.N_TRAJ, failed, out_dir, {"rows": rows})

    def check(self, result: JobResult, statistical: bool) -> List[Check]:
        built = [r for r in result.data["rows"] if r[1] != ""]
        worst = max((float(r[4]) for r in built), default=0.0)
        return [
            ("ledger identity <= 1e-10", worst <= 1e-10,
             f"worst rel err {worst:.2e} over {len(built)} built clocks"),
            (f"{self.N_EVENTS} events per trajectory",
             all(r[1] == self.N_EVENTS for r in built), ""),
        ]


class Limits(Workload):
    """``trapclock overshoot`` plus ``fk_msd``: no env, chains or clock code,
    so the bypass case for any engine or hashing change."""

    name = "limits"
    N_PATHS = 10_000
    FK_SAMPLES = 1000
    ALPHAS = (0.3, 0.5, 0.8)

    def _job(self, master, n_paths, alphas, rhos, fk_samples, out_dir: Path) -> JobResult:
        argv = ["overshoot", "--master-seed", str(master), "--workers", "1",
                "--alpha-list", ",".join(str(a) for a in alphas),
                "--rho-list", ",".join(str(r) for r in rhos),
                "--n-paths", str(n_paths)]
        items = n_paths * len(alphas) * len(rhos) + fk_samples
        res = self._cli(argv, items, out_dir)
        msd, se = fk_msd(ALPHA, 2, FK_GRID, fk_samples, seed=master)
        res.data["fk"] = (msd, se)
        _write_csv(out_dir / "fk_msd.csv", ("t", "msd", "std_error"),
                   [(repr(float(t)), repr(float(m)), repr(float(s)))
                    for t, m, s in zip(FK_GRID, msd, se)])
        return res

    def warm_up(self) -> None:
        self._job(self.seed, 200, (ALPHA,), (1.0,), 10, self.out_dir / "warmup")

    def run(self, rep: int = 0) -> JobResult:
        return self._job(self.master(rep), self.N_PATHS, self.ALPHAS, AGING_RHOS,
                         self.FK_SAMPLES, self.out_dir / "job")

    def check(self, result: JobResult, statistical: bool) -> List[Check]:
        out = _exit_check(result)
        if not statistical:
            return out
        if result.data["exit"] == 0:
            for r in _read_csv(result.out_dir / "overshoot.csv"):
                p, se, target = (float(r[k]) for k in ("estimate", "std_error",
                                                       "arcsine_target"))
                band = max(Z_BAND * se, 0.01)  # criterion 04: max(3 SE, 0.01)
                out.append((f"overshoot alpha={r['alpha']} rho={r['rho']}",
                            abs(p - target) <= band,
                            f"{p:.4f} vs {target:.4f} +- {band:.4f}"))
        msd, se = result.data["fk"]
        slope, slope_se = loglog_slope(FK_GRID, msd, se)
        band = max(0.05, Z_BAND * slope_se)  # criterion 09: alpha +- 0.05
        out.append(("fk_msd slope near alpha", abs(slope - ALPHA) <= band,
                    f"slope {slope:.4f}, band {ALPHA} +- {band:.4f}"))
        return out


WORKLOADS = {cls.name: cls for cls in (ConditionsAnnealed, AgingEnsemble,
                                       WalksQuenched, Limits)}
