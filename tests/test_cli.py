"""End-to-end tests for the batch experiment command line.

Every invocation goes through ``trapclock.cli.main`` in-process so exit
codes and emitted files can be checked directly; one test runs the
``trapclock`` entry point declared in ``pyproject.toml`` in a fresh
interpreter, the way the installed console script would.  Determinism
contracts (byte-identical reruns, worker-count invariance) are asserted on
raw file bytes.
"""

import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trapclock
import trapclock.aging
import trapclock.chains
import trapclock.cli
import trapclock.limits
import trapclock.rng
from trapclock import __version__
from trapclock.cli import main
from trapclock.clock import ScaleSet
from trapclock.env import EnvConfig
from trapclock.errors import ContractViolationError
from trapclock.estimators import estimate_nu_t
from trapclock.limits import arcsine_cdf
from trapclock.stats import slope_and_se


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def by_traj(rows):
    out = {}
    for row in rows:
        out.setdefault(int(row[0]), []).append(row[1:])
    return out


def test_simulate_files_and_manifest(tmp_path):
    for kind in ("ContinuousJ_VSRW", "DiscreteJ"):
        out = tmp_path / kind
        rc = main(["simulate", "--out", str(out), "--n", "500", "--n-traj", "2",
                   "--t-max", "0.5", "--kind", kind])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["blocks.csv", "clocks.csv", "manifest.json",
                         "trajectories.csv"]

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["build"] == __version__
        cfg = manifest["config"]
        assert cfg["n"] == 500 and cfg["n_traj"] == 2 and cfg["t_max"] == 0.5
        assert cfg["master_seed"] == 1 and cfg["workers"] == 1
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

        header, rows = read_csv(out / "trajectories.csv")
        assert header == ["traj", "event", "time", "holding", "x0", "x1"]
        assert manifest["totals"]["samples_or_events"] == len(rows)
        for traj, chunk in by_traj(rows).items():
            events = [int(r[0]) for r in chunk]
            assert events == list(range(len(chunk)))
            times = np.array([float(r[1]) for r in chunk])
            assert np.all(np.diff(times) > 0)
            if kind == "DiscreteJ":  # one jump per integer epoch
                assert np.array_equal(times, np.arange(1, len(chunk) + 1))
            assert all(float(r[2]) > 0 for r in chunk)
            sites = np.array([[int(r[3]), int(r[4])] for r in chunk])
            assert np.abs(sites[0]).sum() == 1  # first hop leaves the origin
            assert np.all(np.abs(np.diff(sites, axis=0)).sum(axis=1) == 1)

        header, rows = read_csv(out / "clocks.csv")
        assert header == ["traj", "breakpoint", "value"]
        for traj, chunk in by_traj(rows).items():
            bps = np.array([float(r[0]) for r in chunk])
            vals = np.array([float(r[1]) for r in chunk])
            # the discrete clock starts with the step-0 mark on the books
            assert bps[0] == 0.0 and (vals[0] == 0.0) == (kind != "DiscreteJ")
            assert np.all(np.diff(bps) > 0)
            # Clock values may plateau in float once a single hold dwarfs the
            # running total (increments below one ulp), so only nondecreasing.
            assert np.all(np.diff(vals) >= 0)

        header, rows = read_csv(out / "blocks.csv")
        assert header == ["traj", "k", "z"]
        chunks = by_traj(rows)
        assert set(chunks) == {0, 1}
        sizes = set()
        for traj, chunk in chunks.items():
            ks = [int(r[0]) for r in chunk]
            assert ks == list(range(len(chunk)))
            assert all(float(r[1]) >= 0 for r in chunk)
            sizes.add(len(chunk))
        assert len(sizes) == 1  # same block schedule for every trajectory


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = ["--n", "500", "--n-traj", "2", "--t-max", "0.5",
            "--master-seed", "9"]
    assert main(["simulate", "--out", str(tmp_path / "a")] + args) == 0
    assert main(["simulate", "--out", str(tmp_path / "b")] + args) == 0
    for name in ("trajectories.csv", "clocks.csv", "blocks.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert man_a["files"] == man_b["files"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 600, "t_max": 0.25}))
    out = tmp_path / "sim"
    rc = main(["simulate", "--out", str(out), "--config", str(cfg_path),
               "--n", "500"])
    assert rc == 0
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    assert cfg["n"] == 500       # explicit flag beats the config file
    assert cfg["t_max"] == 0.25  # config file beats the built-in default
    assert cfg["d"] == 2         # untouched default

    # an integral JSON number for a float key is that float
    cfg_path.write_text(json.dumps({"t_max": 1}))
    args = trapclock.cli._build_parser().parse_args(
        ["simulate", "--config", str(cfg_path)])
    t_max = trapclock.cli._effective_config("simulate", args)["t_max"]
    assert t_max == 1.0 and isinstance(t_max, float)

    # a JSON list is read as the same list as comma-separated flag text
    cfg_path.write_text(json.dumps({"n_list": [400], "u_list": [0.5, 1, 2]}))
    common = ["--n-traj", "50", "--with-sigma", "0"]
    assert main(["conditions", "--out", str(tmp_path / "json"), "--config",
                 str(cfg_path)] + common) == 0
    assert main(["conditions", "--out", str(tmp_path / "flags"), "--n-list",
                 "400", "--u-list", "0.5,1,2"] + common) == 0
    assert (tmp_path / "json" / "conditions.csv").read_bytes() == \
        (tmp_path / "flags" / "conditions.csv").read_bytes()


@pytest.mark.parametrize("command", sorted(trapclock.cli._SPECS))
def test_null_config_values_keep_the_defaults(tmp_path, command):
    spec = trapclock.cli._SPECS[command]
    cfg_path = tmp_path / "null.json"
    cfg_path.write_text(json.dumps(dict.fromkeys(spec)))
    args = trapclock.cli._build_parser().parse_args(
        [command, "--config", str(cfg_path)])
    cfg = trapclock.cli._effective_config(command, args)
    assert cfg == {key: default for key, (_typ, default) in spec.items()}


def test_null_alpha_config_runs_without_a_traceback(tmp_path):
    # {"alpha": null} once set alpha to None and raised a TypeError
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": None, "n_traj": 1}))
    out = tmp_path / "sim"
    rc = main(["simulate", "--out", str(out), "--config", str(cfg_path),
               "--n", "300", "--t-max", "0.25"])
    assert rc in (0, 2)
    if rc == 0:
        assert json.loads((out / "manifest.json").read_text())["config"]["alpha"] == 0.5


@pytest.mark.parametrize("text", ['5', '["alpha"]', '{"n": [1, 2]}',
                                  '{"n_traj": 20.9}', '{"t_max": true}'])
def test_malformed_config_is_a_configuration_error(tmp_path, capsys, text):
    # the first three once escaped main as a TypeError or AttributeError;
    # the last two were once read as 20 and 1.0, where the flags exit 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = main(["simulate", "--out", str(tmp_path / "sim"), "--config",
               str(cfg_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("text", ['{"n_list": [400.7]}', '{"with_sigma": true}'])
def test_config_values_parse_like_their_flags(tmp_path, capsys, text):
    # a non-integral or boolean value for an integer key is refused, in a
    # list as in a scalar, as ``--n-list 400.7`` is
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = main(["conditions", "--out", str(tmp_path / "cond"), "--config",
               str(cfg_path), "--n-traj", "20"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "cond").exists()


def test_conditions_grid_matches_library(tmp_path):
    out = tmp_path / "cond"
    rc = main(["conditions", "--out", str(out), "--n-list", "400",
               "--t-list", "1.0", "--u-list", "0.25,0.5,1.0",
               "--eps-list", "0.1", "--n-traj", "150", "--master-seed", "7"])
    assert rc == 0
    header, rows = read_csv(out / "conditions.csv")
    assert header == ["name", "n", "t", "u_or_eps", "value", "std_error",
                      "n_samples", "env_seed", "mode"]
    assert [r[0] for r in rows] == ["Nu_t", "Nu_t", "Nu_t", "A0_tail",
                                    "Sigma_t", "Sigma_t", "Sigma_t", "M_eps"]
    assert all(r[1] == "400" and r[2] == "1.0" and r[6] == "150" and
               r[7] == "7" and r[8] == "quenched" for r in rows)

    # The CSV must reproduce direct library calls bit for bit.
    env = EnvConfig(d=2, alpha=0.5, theta=0.0, env_seed=7, c_bar=1.0)
    scales = ScaleSet.for_lattice(400, 2, 0.5, gamma2=0.15)
    u_list = [0.25, 0.5, 1.0]
    nus = estimate_nu_t(env, scales, 1.0, u_list, 150)
    for row, u, est in zip(rows[:3], u_list, nus):
        assert float(row[3]) == u
        assert float(row[4]) == est.value
        assert float(row[5]) == est.std_error

    slope_row = rows[3]
    slope, se = slope_and_se(np.log(u_list), np.log([e.value for e in nus]))
    assert slope_row[3] == ""
    assert float(slope_row[4]) == slope and float(slope_row[5]) == se
    assert slope < 0.0  # tail probabilities decay with the threshold

    eps_row = rows[7]
    assert float(eps_row[3]) == 0.1
    assert 0.0 <= float(eps_row[4])


def test_conditions_tail_slope_skips_zero_threshold(tmp_path):
    def tail_rows(u_list):
        out = tmp_path / u_list
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["conditions", "--out", str(out), "--n-list", "400",
                         "--t-list", "1.0", "--u-list", u_list, "--n-traj",
                         "100", "--with-sigma", "0", "--master-seed", "3"]) == 0
        _, rows = read_csv(out / "conditions.csv")
        return [r for r in rows if r[0] == "A0_tail"]

    with_zero = tail_rows("0,0.5,1,2,4")
    assert len(with_zero) == 1 and math.isfinite(float(with_zero[0][4]))
    assert with_zero == tail_rows("0.5,1,2,4")
    # the fit itself refuses too few points, unmatched arrays and a
    # constant abscissa
    for x, y in (([0, 1], [0, 1]), ([0, 1, 2], [0, 1]), ([1, 1, 1], [0, 1, 2])):
        with pytest.raises(ContractViolationError):
            slope_and_se(x, y)


def test_conditions_worker_invariance(tmp_path):
    args = ["--n-list", "400", "--t-list", "1.0", "--u-list", "0.25,0.5,1.0",
            "--n-traj", "100", "--with-sigma", "0", "--master-seed", "3"]
    assert main(["conditions", "--out", str(tmp_path / "w1"), "--workers",
                 "1"] + args) == 0
    assert main(["conditions", "--out", str(tmp_path / "w2"), "--workers",
                 "2"] + args) == 0
    assert (tmp_path / "w1" / "conditions.csv").read_bytes() == \
        (tmp_path / "w2" / "conditions.csv").read_bytes()


def test_overshoot_table(tmp_path):
    out = tmp_path / "over"
    rc = main(["overshoot", "--out", str(out), "--alpha-list", "0.5",
               "--rho-list", "1.0", "--n-paths", "4000"])
    assert rc == 0
    header, rows = read_csv(out / "overshoot.csv")
    assert header == ["alpha", "rho", "n_paths", "estimate", "std_error",
                      "arcsine_target", "mode"]
    assert len(rows) == 1
    row = rows[0]
    assert row[6] == "moment" and int(row[2]) == 4000
    p, se, target = float(row[3]), float(row[4]), float(row[5])
    assert target == arcsine_cdf(0.5, 0.5)
    assert np.isclose(se, math.sqrt(p * (1.0 - p) / 4000), rtol=1e-12)
    assert abs(p - target) <= 3.5 * se + 0.01


def test_overshoot_rows_share_one_sample_per_alpha(tmp_path):
    # Each alpha is one passage sample; every rho row is a threshold on it,
    # so within an alpha the estimates cannot increase with rho.
    out = tmp_path / "over"
    assert main(["overshoot", "--out", str(out), "--master-seed", "7",
                 "--alpha-list", "0.3,0.8", "--rho-list", "3.0,0.5,1.0",
                 "--n-paths", "3000"]) == 0
    _, rows = read_csv(out / "overshoot.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["totals"]["samples_or_events"] == 2 * 3000
    for i, alpha in enumerate((0.3, 0.8)):
        rng = np.random.default_rng(
            trapclock.rng.hash_words(7, trapclock.cli._OVERSHOOT_DOMAIN, i, 0))
        vals = trapclock.limits.passage_values(alpha, 1.0, 3000, rng)
        mine = [r for r in rows if float(r[0]) == alpha]
        assert [float(r[1]) for r in mine] == [3.0, 0.5, 1.0]
        for r in mine:
            assert float(r[3]) == float(np.mean(vals >= 1.0 + float(r[1])))
        by_rho = sorted((float(r[1]), float(r[3])) for r in mine)
        assert all(a[1] >= b[1] for a, b in zip(by_rho, by_rho[1:]))


# The benchmark's limits job runs this overshoot grid; SHA-256 of its
# overshoot.csv at master seed 0.
BENCH_OVERSHOOT_ARGV = [
    "--workers", "1", "--alpha-list", "0.3,0.5,0.8",
    "--rho-list", "0.5,1.0,3.0", "--n-paths", "10000"]
BENCH_OVERSHOOT_SHA256 = {
    0: "9bc0f379853d590b845276634af5b74b14326b3dc61d9d17cd5d7560be386c74",
}


@pytest.mark.parametrize("master", sorted(BENCH_OVERSHOOT_SHA256))
def test_overshoot_grid_golden_digest(tmp_path, master):
    out = tmp_path / "golden"
    assert main(["overshoot", "--out", str(out), "--master-seed", str(master)]
                + BENCH_OVERSHOOT_ARGV) == 0
    digest = hashlib.sha256((out / "overshoot.csv").read_bytes()).hexdigest()
    assert digest == BENCH_OVERSHOOT_SHA256[master]


# The benchmark's aging-ensemble job (bench/workloads.py) and the SHA-256
# of its aging.csv and aging_env.csv per master seed.
BENCH_AGING_ARGV = [
    "--workers", "1", "--d", "2", "--alpha", "0.5", "--theta", "0",
    "--s-list", "100000", "--rho-list", "0.5,1.0,3.0", "--n-env", "300",
    "--n-traj", "2"]
BENCH_AGING_SHA256 = {
    0: ("33dc2afc37c1539e4697c592812dcf3e0baf76cebcb1b95cb8a3aef37484603f",
        "d61f5940d3fc85d1dd75d5dc5c69c3de7a3ce23cb54924db68f9b80c7ac24c78"),
    5: ("1bd0161534c91d52ff3d7a9d683c50af7854c51a912de54875973375e6fb2453",
        "c0d5e96e237cab6875e9f5d0e6d7c2e12f97d9ab0709d3576d9cd7a834497c8f"),
}


@pytest.mark.parametrize("master", sorted(BENCH_AGING_SHA256))
def test_aging_grid_golden_digest(tmp_path, master):
    out = tmp_path / "golden"
    assert main(["aging", "--out", str(out), "--master-seed", str(master)]
                + BENCH_AGING_ARGV) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("aging.csv", "aging_env.csv"))
    assert digests == BENCH_AGING_SHA256[master]


def test_aging_smoke_and_eps_column(tmp_path):
    out = tmp_path / "age"
    rc = main(["aging", "--out", str(out), "--s-list", "1000",
               "--rho-list", "1.0", "--n-env", "2", "--n-traj", "2"])
    assert rc == 0
    header, rows = read_csv(out / "aging.csv")
    assert header == ["kind", "s", "rho", "eps", "estimate", "std_error",
                      "arcsine_target", "n_env", "n_traj", "excluded"]
    assert [r[0] for r in rows] == ["C1", "C2", "C3"]
    for row in rows:
        assert row[3] == ""
        assert 0.0 <= float(row[4]) <= 1.0
        assert float(row[6]) == arcsine_cdf(0.5, 0.5)
        assert row[7] == "2" and row[8] == "2" and row[9] == "0"
    _, env_rows = read_csv(out / "aging_env.csv")
    assert len(env_rows) == 6  # three kinds x two environments
    seeds = {r[3] for r in env_rows}
    assert len(seeds) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["totals"]["samples_or_events"] == 3 * 2 * 2

    out2 = tmp_path / "age_eps"
    rc = main(["aging", "--out", str(out2), "--s-list", "1000",
               "--rho-list", "1.0", "--n-env", "2", "--n-traj", "2",
               "--eps", "0.3"])
    assert rc == 0
    _, rows2 = read_csv(out2 / "aging.csv")
    assert [r[0] for r in rows2] == ["C1", "C2", "C3", "Ceps_batm"]
    assert rows2[3][3] == "0.3"


def test_aging_worker_and_rerun_invariance(tmp_path):
    args = ["--s-list", "1000", "--rho-list", "1.0", "--n-env", "3",
            "--n-traj", "3", "--master-seed", "5"]
    assert main(["aging", "--out", str(tmp_path / "w1"), "--workers", "1"]
                + args) == 0
    assert main(["aging", "--out", str(tmp_path / "w2"), "--workers", "2"]
                + args) == 0
    assert main(["aging", "--out", str(tmp_path / "w3"), "--workers", "1"]
                + args) == 0
    for name in ("aging.csv", "aging_env.csv"):
        blob = (tmp_path / "w1" / name).read_bytes()
        assert (tmp_path / "w2" / name).read_bytes() == blob
        assert (tmp_path / "w3" / name).read_bytes() == blob


def test_aging_grid_is_per_cell_rows_at_any_worker_count(tmp_path):
    # A 2 x 3 grid read off one pass per trajectory writes, at one and at
    # two workers, exactly the rows the six single-cell runs write, in grid
    # order; the small event cap excludes trajectories from the later cells.
    args = ["--n-env", "4", "--n-traj", "3", "--master-seed", "3",
            "--eps", "0.4", "--max-events", "80"]
    grid = ["--s-list", "100,1000", "--rho-list", "0.5,1.0,3.0"]
    for workers in ("1", "2"):
        assert main(["aging", "--out", str(tmp_path / f"w{workers}"),
                     "--workers", workers] + grid + args) == 0
    cells = {}
    for s in ("100", "1000"):
        for rho in ("0.5", "1.0", "3.0"):
            out = tmp_path / f"cell_{s}_{rho}"
            assert main(["aging", "--out", str(out), "--s-list", s,
                         "--rho-list", rho] + args) == 0
            cells[(s, rho)] = out
    for name in ("aging.csv", "aging_env.csv"):
        blob = (tmp_path / "w1" / name).read_bytes()
        assert (tmp_path / "w2" / name).read_bytes() == blob
        header, rows = read_csv(tmp_path / "w1" / name)
        singles = []
        for out in cells.values():
            single_header, single_rows = read_csv(out / name)
            assert single_header == header
            singles.extend(single_rows)
        assert rows == singles
    _, rows = read_csv(tmp_path / "w1" / "aging.csv")
    excluded = [int(r[9]) for r in rows]
    assert excluded[0] == 0 and max(excluded) > 0


def test_exit_codes(tmp_path):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text('{"bogus": 1}')
    assert main(["simulate", "--out", str(tmp_path / "x1"), "--config",
                 str(bad_key)]) == 2

    assert main(["simulate", "--out", str(tmp_path / "x2"), "--config",
                 str(tmp_path / "missing.json")]) == 2

    bad_val = tmp_path / "bad_val.json"
    bad_val.write_text('{"n": "abc"}')
    assert main(["simulate", "--out", str(tmp_path / "x3"), "--config",
                 str(bad_val)]) == 2

    assert main(["simulate", "--out", str(tmp_path / "x4"), "--kind",
                 "Nope", "--n", "500"]) == 2
    for command in ("conditions", "overshoot"):
        out = tmp_path / f"mode_{command}"
        assert main([command, "--out", str(out), "--mode", "Nope"]) == 2
        assert not out.exists()

    # A cap below one event is refused before any simulation.
    for cap in ("-5", "0"):
        out = tmp_path / f"cap{cap}"
        assert main(["aging", "--out", str(out), "--s-list", "1e9",
                     "--rho-list", "1.0", "--n-env", "1", "--n-traj", "2",
                     "--max-events", cap]) == 2
        assert not out.exists()

    # Every trajectory hits the event cap: runtime exit code 3, no manifest.
    out = tmp_path / "cap"
    rc = main(["aging", "--out", str(out), "--s-list", "1e9",
               "--rho-list", "1.0", "--n-env", "1", "--n-traj", "2",
               "--max-events", "2"])
    assert rc == 3
    assert not (out / "manifest.json").exists()

    with pytest.raises(SystemExit):
        main([])


# The benchmark's conditions-annealed job (bench/workloads.py) and the
# SHA-256 of its conditions.csv per master seed.
BENCH_CONDITIONS_ARGV = [
    "--workers", "1", "--d", "2", "--alpha", "0.5", "--theta", "0",
    "--n-list", "10000", "--t-list", "1", "--u-list", "0.25,0.5,1.0,2.0,4.0",
    "--eps-list", "0.1", "--with-sigma", "1", "--mode", "annealed",
    "--kind", "DiscreteJ", "--n-traj", "10"]
BENCH_CONDITIONS_SHA256 = {
    5: "ae03ca1b9dd8606569030d2d8355f104db23db0935860163426524a294f3d688",
    0: "ec9ee940dac7ef1e42c41a126fc7c99498b561cbb30c34073280f38b5600ca9c",
}


@pytest.mark.parametrize("master", sorted(BENCH_CONDITIONS_SHA256))
def test_conditions_grid_golden_digest(tmp_path, master):
    out = tmp_path / "golden"
    assert main(["conditions", "--out", str(out), "--master-seed", str(master)]
                + BENCH_CONDITIONS_ARGV) == 0
    digest = hashlib.sha256((out / "conditions.csv").read_bytes()).hexdigest()
    assert digest == BENCH_CONDITIONS_SHA256[master]


def test_overshoot_refuses_non_finite_rho_before_sampling(tmp_path, monkeypatch):
    # --rho-list nan once exited 2 only after sampling the first alpha
    calls = []
    monkeypatch.setattr(trapclock.cli, "passage_values",
                        lambda *a, **k: calls.append(a))
    for rho in ("nan", "inf"):
        out = tmp_path / rho
        assert main(["overshoot", "--rho-list", f"1,{rho}", "--out", str(out)]) == 2
        assert not out.exists()
    assert calls == []


def test_conditions_event_cap_exits_3(tmp_path, monkeypatch):
    # A theta > 0 block run past the default event cap is a runtime exit 3.
    monkeypatch.setattr(trapclock.chains, "DEFAULT_MAX_EVENTS", 2)
    out = tmp_path / "cap"
    assert main(["conditions", "--out", str(out), "--n-list", "400",
                 "--n-traj", "3", "--theta", "0.5",
                 "--kind", "ContinuousJ_VSRW"]) == 3
    assert not (out / "manifest.json").exists()


def test_grid_validated_before_any_simulation(tmp_path, monkeypatch):
    # A bad cell anywhere in the grid exits 2 before the first estimate and
    # before the output directory exists.
    calls = []
    monkeypatch.setattr(trapclock.cli, "estimate_mark_conditions",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(trapclock.aging, "_window_rows",
                        lambda *a, **k: calls.append(a))
    monkeypatch.setattr(trapclock.cli, "passage_values",
                        lambda *a, **k: calls.append(a))
    bad = (["conditions", "--n-list", "400,1"],
           ["conditions", "--n-list", "400", "--t-list", "1,0.01"],
           ["aging", "--s-list", "100,-5"],
           ["aging", "--s-list", "100,1.5"],
           ["aging", "--s-list", "100", "--rho-list", "1,0"],
           ["overshoot", "--alpha-list", "0.5,1.5", "--rho-list", "1,0",
            "--n-paths", "100000"],
           ["overshoot", "--alpha-list", "0.5,1.0"],
           ["overshoot", "--rho-list", "1,-2"],
           ["overshoot", "--n-paths", "0"],
           ["overshoot", "--mode", "drop"])
    for i, argv in enumerate(bad):
        out = tmp_path / f"bad{i}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists(), argv
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-max", "nan"],
    ["simulate", "--t-max", "inf"],
    ["aging", "--s-list", "inf"],
    ["aging", "--s-list", "nan"],
    ["aging", "--eps", "nan"],
    ["aging", "--rho-list", "nan"],
    ["conditions", "--t-list", "nan"],
    ["conditions", "--t-list", "inf"],
], ids=" ".join)
def test_nonfinite_values_exit_2_before_simulating(tmp_path, monkeypatch, argv):
    calls = []
    for module, name in ((trapclock.cli, "estimate_mark_conditions"),
                         (trapclock.cli, "run_vsrw"),
                         (trapclock.aging, "_window_rows")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert calls == []


def test_version_has_one_source():
    # The distribution's version is read from the attribute the manifest's
    # "build" field writes, so the two cannot disagree.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    source = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, _, attr = source.rpartition(".")
    assert getattr(importlib.import_module(module), attr) == __version__


def test_every_exported_name_resolves():
    # a stale __all__ entry would otherwise fail only at an import *
    assert [name for name in trapclock.__all__ if not hasattr(trapclock, name)] == []
    assert len(set(trapclock.__all__)) == len(trapclock.__all__)


def test_console_script_help():
    # Run the declared console script without installing it: build the
    # wrapper pip generates for the [project.scripts] entry and run it in a
    # fresh interpreter that loads the same trapclock copy as this suite.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts.get("trapclock") == "trapclock.cli:main"
    module, func = scripts["trapclock"].split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'trapclock'; sys.exit({func}())")
    pkg_parent = str(Path(trapclock.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: trapclock")
    for name in ("simulate", "conditions", "overshoot", "aging"):
        assert name in proc.stdout
