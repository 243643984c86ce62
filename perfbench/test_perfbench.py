"""Tests of the benchmark itself: determinism, its references, its config.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Operations per determinism run: small, but every workload's layers move.
SMALL_OPS = {"eval_mix": 60, "verify_sweep": 3, "os_mode": 1, "cli_calls": 10}
COUNT_UNITS = ("calls/op", "terms/op", "count/op", "evals/op", "ratio")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    """Two traced runs on one seed agree on every machine-independent count."""
    results = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "7", "--trace", "1",
                      "--ops", str(SMALL_OPS[workload]))
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    counts = [name for name, unit, _ in run.PER_LAYER if unit in COUNT_UNITS]
    counts += ["accuracy.fail_frac", "accuracy.wrong_frac"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    calls = first["metrics"]["special_functions.pfq.calls"]["value"]
    assert calls > 0


def test_accuracy_counts_do_not_depend_on_run_length(monkeypatch, capsys):
    """A short and a longer run on one seed count the same operations."""
    monkeypatch.setattr(workloads.EvalMix, "counted_tasks", 40)
    results, operations = [], []
    for seconds in (0.01, 0.3):
        run.run_workload("eval_mix", 3, seconds, 0, 0)
        lines = capsys.readouterr().out.strip().splitlines()
        results.append(json.loads(lines[-1]))
        record = next(line for line in lines if line.startswith("# run-record "))
        operations.append(json.loads(record[len("# run-record "):])["operations"])
    first, second = results
    assert operations[0] == 40 < operations[1]
    assert first["attempted"] == second["attempted"] == 40
    assert first["failed"] == second["failed"]
    for name in ("ok_frac", "honest_frac"):
        assert first["metrics"][name] == second["metrics"][name], name


def test_termwise_antiderivative_matches_quadrature():
    sampler = workloads.Sampler("reference-check")
    for _ in range(6):
        spec, x = workloads.mix_spec(sampler)
        kernel, alpha, beta, eta, lam, gamma, upper, lower = spec
        fn = {"exp": mp.exp, "cosh": mp.cosh, "sinh": mp.sinh, "cos": mp.cos, "sin": mp.sin}[kernel]
        with mp.workdps(25):
            quad = mp.quad(lambda t: t**alpha * fn(eta * t**beta)
                           * mp.hyper(upper, lower, lam * t**gamma), [0, x])
        assert refs.relerr(refs.antiderivative(spec, x), complex(quad)) < 1e-12


def test_transform_references_match_quadrature():
    with mp.workdps(20):
        for alpha, theta, k in ((0, 1.0, 2.0), (3, 0.7, 3.5), (2, 1.6, 0.4)):
            quad = mp.quad(lambda x: x**alpha * mp.exp(-theta**2 * x * x) * mp.expj(k * x),
                           [-mp.inf, 0, mp.inf])
            assert refs.relerr(refs.fourier_moment(alpha, theta, k), complex(quad), 1e-8) < 1e-12
        for alpha, theta, u in ((0.0, 1.0, 10.0), (1.3, 0.5, 6.0 + 2.0j)):
            quad = mp.quad(lambda x: x**alpha * mp.exp(-theta**2 * x * x - u * x), [0, mp.inf])
            assert refs.relerr(refs.laplace_moment(alpha, theta, u), complex(quad)) < 1e-12


def test_stability_mode_is_exact():
    """With the workload's omega the shift lambda vanishes."""
    rng = random.Random(5)
    for _ in range(5):
        k, r, re = rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.0), rng.uniform(2.0, 50.0)
        lam = 1j * re * workloads.consistent_omega(k, r, re) - r * r * k * k
        assert abs(lam) < 1e-12


def test_config_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "eval_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
