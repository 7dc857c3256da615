"""Batch experiment front end.

Subcommands drive the library over parameter grids and emit CSV files plus a
manifest with checksums:

* simulate    trajectory, clock, and block dumps for a handful of runs;
* conditions  block-condition estimates over (n, t, u, eps) grids, with a
              tail-slope summary row per (n, t), fitted over the u > 0;
* overshoot   subordinator first-passage tables against the arcsine CDF;
* aging       one-pass window correlation estimates over (s, rho) grids,
              annealed means plus per-environment rows.

Configuration comes from defaults, overridden by a JSON --config file,
overridden by explicit flags.  All validation happens before any simulation
starts (exit 2 on bad parameters; exit 3 when every trajectory of an aging
cell hit --max-events, or a theta > 0 run reached the default event cap).
Outputs are byte-identical for identical configs and seeds, independent of
--workers: the work split is fixed and merges are ordered.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .aging import DEFAULT_EVENT_CAP, aging_grid
from .chains import (ChainKind, TrajectoryConfig, as_model, run_discrete,
                     run_vsrw)
from .clock import ScaleSet, block_series, build_clock
from .env import EnvConfig
from .errors import ContractViolationError, EventCapError, TrapclockError, _integer
from .estimators import ConditionName, _mark_count, estimate_mark_conditions
from .limits import _check_alpha_mode, arcsine_cdf, passage_values
from .rng import TRAJ_FANOUT, hash_words
from .stats import slope_and_se

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3

_OVERSHOOT_DOMAIN = 0xA51


def _list_of(item):
    """Parser of comma-separated text or a list of texts, each by ``item``."""
    def parse(text):
        texts = text if isinstance(text, list) else [x for x in text.split(",") if x]
        return [item(x) for x in texts]
    parse.__name__ = f"{item.__name__} list"  # argparse names the type in errors
    return parse


def _flag_text(value) -> str:
    """A JSON config value as flag text: a string as it is, else its JSON."""
    return value if isinstance(value, str) else json.dumps(value)


_floats, _ints = _list_of(float), _list_of(int)


# name -> (parser, default); None defaults mean "optional"
_ENV_SPEC = {"d": (int, 2), "alpha": (float, 0.5), "theta": (float, 0.0),
             "c_bar": (float, 1.0)}
_SPECS = {
    "simulate": {
        **_ENV_SPEC, "n": (int, 1000), "kind": (str, "ContinuousJ_VSRW"),
        "n_traj": (int, 1), "t_max": (float, 1.0), "gamma2": (float, 0.15),
    },
    "conditions": {
        **_ENV_SPEC, "n_list": (_ints, [1000]),
        "t_list": (_floats, [1.0]), "u_list": (_floats, [0.25, 0.5, 1.0, 2.0, 4.0]),
        "eps_list": (_floats, []), "n_traj": (int, 1000),
        "kind": (str, "DiscreteJ"), "mode": (str, "quenched"),
        "with_sigma": (int, 1), "gamma2": (float, 0.15),
    },
    "overshoot": {
        "alpha_list": (_floats, [0.3, 0.5, 0.8]), "rho_list": (_floats, [0.5, 1.0, 3.0]),
        "n_paths": (int, 100_000), "mode": (str, "moment"),
    },
    "aging": {
        **_ENV_SPEC, "s_list": (_floats, [1000.0]),
        "rho_list": (_floats, [1.0]), "eps": (float, None),
        "n_env": (int, 20), "n_traj": (int, 10), "max_events": (int, DEFAULT_EVENT_CAP),
    },
}


def _fmt_any(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# the common cell types, formatted as ``_fmt_any`` would, without its chain
_FMT_BY_TYPE = {str: str, float: float.__repr__, np.float64: float.__repr__,
                int: int.__repr__, np.int64: lambda x: str(int(x))}


def _fmt(x) -> str:
    return _FMT_BY_TYPE.get(type(x), _fmt_any)(x)


class _OutputSet:
    """CSV emission with fixed headers, LF line endings, manifest checksums."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files = {}

    def write_csv(self, name: str, header, rows):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        lines = [",".join(header)]
        lines.extend(",".join(map(_fmt, row)) for row in rows)
        blob = ("\n".join(lines) + "\n").encode()
        path.write_bytes(blob)
        self.files[name] = hashlib.sha256(blob).hexdigest()
        return path

    def write_manifest(self, command: str, config: dict, started: float,
                       totals: dict):
        manifest = {
            "command": command,
            "build": __version__,
            "config": config,
            "files": dict(sorted(self.files.items())),
            "totals": totals,
            "wall_clock_s": round(time.monotonic() - started, 3),
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def _env_from(cfg: dict, master: int) -> EnvConfig:
    return EnvConfig(env_seed=master, **{key: cfg[key] for key in _ENV_SPEC})


def _scales_from(cfg: dict, n: int) -> ScaleSet:
    return ScaleSet.for_lattice(n, cfg["d"], cfg["alpha"], gamma2=cfg["gamma2"])


def cmd_simulate(cfg, out: _OutputSet, master: int, workers: int) -> int:
    env = _env_from(cfg, master)
    model = as_model(env)
    scales = _scales_from(cfg, cfg["n"])
    kind = ChainKind(cfg["kind"])
    horizon = cfg["t_max"] * scales.a_n
    traj_rows, clock_rows, block_rows = [], [], []
    events = 0
    for j in range(cfg["n_traj"]):
        tseed = hash_words(env.env_seed, TRAJ_FANOUT, j)
        tcfg = TrajectoryConfig(tseed, kind, horizon=horizon)
        if kind is ChainKind.DISCRETE_J:
            _, jumps = run_discrete(model, tcfg, want_ledger=False)
        else:
            _, jumps = run_vsrw(model, tcfg, want_ledger=False)
        events += len(jumps)
        path = build_clock(model, jumps)
        series = block_series(path, scales, cfg["t_max"])
        for i in range(len(jumps)):
            traj_rows.append((j, i, jumps.times[i], jumps.holdings[i])
                             + tuple(jumps.sites[i + 1]))
        clock_rows.extend((j, bp, v) for bp, v in
                          zip(path.breakpoints, path.values))
        block_rows.append((j, 0, series.Z0))
        block_rows.extend((j, k + 1, z) for k, z in enumerate(series.Z))
    site_cols = tuple(f"x{a}" for a in range(env.d))
    out.write_csv("trajectories.csv",
                  ("traj", "event", "time", "holding") + site_cols, traj_rows)
    out.write_csv("clocks.csv", ("traj", "breakpoint", "value"), clock_rows)
    out.write_csv("blocks.csv", ("traj", "k", "z"), block_rows)
    return events


def cmd_conditions(cfg, out: _OutputSet, master: int, workers: int) -> int:
    env = _env_from(cfg, master)
    kind = ChainKind(cfg["kind"])
    cells = []
    for n in cfg["n_list"]:
        scales = _scales_from(cfg, n)
        for t in cfg["t_list"]:
            _mark_count(scales, t)
            cells.append((n, t, scales))
    header = ("name", "n", "t", "u_or_eps", "value", "std_error", "n_samples",
              "env_seed", "mode")
    rows = []
    samples = 0
    for n, t, scales in cells:
        est = estimate_mark_conditions(
            env, scales, t, cfg["u_list"], cfg["n_traj"], eps=cfg["eps_list"],
            sigma=bool(cfg["with_sigma"]), kind=kind, mode=cfg["mode"],
            workers=workers)
        nus = est[ConditionName.NU_T]
        for u, e in zip(cfg["u_list"], nus):
            rows.append((e.name.value, n, t, u, e.value, e.std_error,
                         e.n_samples, master, cfg["mode"]))
            samples += e.n_samples
        tail = [(u, e.value) for u, e in zip(cfg["u_list"], nus) if u > 0]
        if len(tail) >= 3 and all(v > 0 for _, v in tail):
            us, vs = zip(*tail)
            slope, se = slope_and_se(np.log(us), np.log(vs))
            rows.append((ConditionName.A0_TAIL.value, n, t, "", slope, se,
                         cfg["n_traj"], master, cfg["mode"]))
        for values, name in ((cfg["u_list"], ConditionName.SIGMA_T),
                             (cfg["eps_list"], ConditionName.M_EPS)):
            rows.extend((e.name.value, n, t, v, e.value, e.std_error,
                         e.n_samples, master, cfg["mode"])
                        for v, e in zip(values, est[name]))
    out.write_csv("conditions.csv", header, rows)
    return samples


def cmd_overshoot(cfg, out: _OutputSet, master: int, workers: int) -> int:
    n_paths, mode = _integer("n_paths", cfg["n_paths"], 1), cfg["mode"]
    for alpha in cfg["alpha_list"]:
        _check_alpha_mode(alpha, mode)
    if not all(0 < rho < math.inf for rho in cfg["rho_list"]):
        raise ContractViolationError("need every rho finite and > 0")
    header = ("alpha", "rho", "n_paths", "estimate", "std_error",
              "arcsine_target", "mode")
    rows = []
    for i, alpha in enumerate(cfg["alpha_list"]):
        # one sample per alpha; rho only sets the overshoot threshold
        rng = np.random.default_rng(hash_words(master, _OVERSHOOT_DOMAIN, i, 0))
        vals = passage_values(alpha, 1.0, n_paths, rng, mode=mode)
        for rho in cfg["rho_list"]:
            p = float(np.mean(vals >= 1.0 + rho))
            se = math.sqrt(p * (1.0 - p) / n_paths)
            rows.append((alpha, rho, n_paths, p, se,
                         arcsine_cdf(alpha, 1.0 / (1.0 + rho)), mode))
    out.write_csv("overshoot.csv", header, rows)
    return n_paths * len(cfg["alpha_list"])


def cmd_aging(cfg, out: _OutputSet, master: int, workers: int) -> int:
    env = _env_from(cfg, master)
    header = ("kind", "s", "rho", "eps", "estimate", "std_error",
              "arcsine_target", "n_env", "n_traj", "excluded")
    env_header = ("kind", "s", "rho", "env_seed", "estimate")
    cells = [(s, rho) for s in cfg["s_list"] for rho in cfg["rho_list"]]
    # one simulation pass serves the whole grid; a repeated cell repeats rows
    grid = aging_grid(env, list(dict.fromkeys(cells)), eps=cfg["eps"],
                      n_env=cfg["n_env"], n_traj=cfg["n_traj"],
                      max_events=cfg["max_events"], workers=workers)
    rows, env_rows = [], []
    samples = 0
    for cell in cells:
        for pt in grid[cell].values():  # C1, C2, C3[, Ceps_batm]
            rows.append((pt.kind.value, pt.s, pt.rho,
                         "" if pt.eps is None else pt.eps, pt.estimate,
                         pt.std_error, pt.arcsine_target, pt.n_env,
                         pt.n_traj_per_env, pt.excluded))
            env_rows.extend(
                (pt.kind.value, pt.s, pt.rho, seed, est)
                for seed, est in zip(pt.env_seeds, pt.env_estimates))
            samples += pt.n_env * pt.n_traj_per_env
    out.write_csv("aging.csv", header, rows)
    out.write_csv("aging_env.csv", env_header, env_rows)
    return samples


_RUNNERS = {"simulate": cmd_simulate, "conditions": cmd_conditions,
            "overshoot": cmd_overshoot, "aging": cmd_aging}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was, and
    # every type= callable is stateless, so in-process calls share it
    parser = argparse.ArgumentParser(
        prog="trapclock",
        description="Trap-model clock process experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SPECS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON file with parameter overrides")
        sp.add_argument("--out", type=str, default=f"out_{name}")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes, at least 1 (simulate and "
                             "overshoot run in one process)")
        sp.add_argument("--master-seed", type=int, default=1,
                        dest="master_seed")
        for key, (typ, _default) in spec.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            type=typ, default=None)
    return parser


def _effective_config(command: str, args) -> dict:
    spec = _SPECS[command]
    cfg = {key: default for key, (_typ, default) in spec.items()}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise TrapclockError("a config file must hold one JSON object")
        unknown = set(loaded) - set(spec)
        if unknown:
            raise TrapclockError(
                f"unknown config keys for {command}: {sorted(unknown)}")
        for key, value in loaded.items():
            # a JSON null leaves the key at its default; a list is read entry by entry
            if value is not None:
                cfg[key] = spec[key][0]([_flag_text(x) for x in value]
                                        if isinstance(value, list) else _flag_text(value))
    for key in spec:
        flag_val = getattr(args, key)
        if flag_val is not None:
            cfg[key] = flag_val
    if "kind" in cfg and cfg["kind"] not in {k.value for k in ChainKind}:
        raise ContractViolationError(f"unknown chain kind {cfg['kind']!r}")
    return cfg


def _check_out(out: Path) -> None:
    """Refuse an --out that cannot become a directory: the nearest of it
    and its ancestors that exists must be one.  Nothing is created here."""
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise ContractViolationError(f"--out {out}: {existing} is not a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args.command, args)
        _integer("--workers", args.workers, 1)
        _check_out(Path(args.out))
    except (TrapclockError, ValueError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    started = time.monotonic()
    out = _OutputSet(Path(args.out))
    try:
        total = _RUNNERS[args.command](cfg, out, args.master_seed, args.workers)
    except EventCapError as exc:
        print(f"runtime cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except TrapclockError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    echo = dict(cfg)
    echo["master_seed"] = args.master_seed
    echo["workers"] = args.workers
    out.write_manifest(args.command, echo, started, {"samples_or_events": total})
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
