"""pfqint benchmark: seeded closed-loop workloads, mpmath-checked answers,
per-layer self time from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload eval_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced

One client issues calls one after another from this single process (the
``cli_calls`` workload starts one child interpreter at a time).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("eval_mix", "verify_sweep", "os_mode", "cli_calls")
PROBES = 5  # child interpreters per set-up or start-up measurement
BLOCK_S = 0.005  # measured seconds between two calibrations
# The calibration kernel's median time on the reference host (a 2-core
# x86-64 virtual machine, CPython 3.11); scaled times are in its seconds.
CALIBRATION_REF_S = 0.0012
# `correct` is false when more than this share of operations failed: the
# program is broken outright.  Smaller losses show in ok_frac and honest_frac.
MAX_FAIL_SHARE = 0.1

END_TO_END = (
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "fraction"),
    ("honest_frac", "fraction"),
    ("setup_s", "s"),
)


def _calls(layer):
    return [(layer + ".calls", "calls/op", "lower"), (layer + ".self_ms", "ms/op", "lower")]


PER_LAYER = (
    _calls("special_functions.pfq")
    + [("special_functions.pfq.terms", "terms/op", "lower"),
       ("special_functions.pfq.not_converged", "count/op", "lower")]
    + _calls("special_functions.log_gamma")
    + _calls("special_functions.pochhammer")
    + _calls("special_functions.asymptotic")
    + _calls("series_integrals.antiderivative")
    + _calls("series_integrals.series_block")
    + _calls("series_integrals.lifted_params")
    + _calls("series_integrals.integrand_value")
    + [("series_integrals.outer_terms", "terms/op", "lower"),
       ("series_integrals.pfq_per_outer_term", "ratio", "lower"),
       ("series_integrals.blocks_per_antiderivative", "ratio", "lower")]
    + _calls("identities.theorem_residual")
    + [("identities.blocks_per_residual", "ratio", "lower")]
    + _calls("identities.lemma1_residual")
    + _calls("transforms.fourier")
    + _calls("transforms.laplace")
    + _calls("oracle.quad_finite")
    + _calls("oracle.quad_semi_infinite")
    + _calls("oracle.quad_oscillatory_fourier")
    + [("oracle.quad.evaluations", "evals/op", "lower")]
    + _calls("oracle.fd")
    + [("oracle.fd.f_evals_per_call", "ratio", "lower")]
    + _calls("orr_sommerfeld.phi_quadrature")
    + [("orr_sommerfeld.evals_per_phi", "ratio", "lower"),
       ("orr_sommerfeld.os_residual.calls", "calls/op", "lower"),
       ("orr_sommerfeld.phi_per_residual", "ratio", "lower")]
    + _calls("orr_sommerfeld.airy_ai")
    + [("cli.run.self_ms", "ms/op", "lower"),
       ("cli.import_ms", "ms", "lower"),
       ("cli.bare_interpreter_ms", "ms", "lower"),
       ("bench.self_ms", "ms/op", "lower"),
       ("trace.untraced_ops_s", "ops/s", "higher"),
       ("trace.traced_ops_s", "ops/s", "higher"),
       ("trace.overhead_frac", "fraction", "lower"),
       ("accuracy.fail_frac", "fraction", "lower"),
       ("accuracy.wrong_frac", "fraction", "lower")]
)


def say(line: str) -> None:
    print("# " + line, flush=True)


# --------------------------------------------------------------------------
# Child-interpreter probes.


def _child(args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )


def _src_env():
    return dict(os.environ, PYTHONPATH=SRC)


def probe_setup(workload: str) -> float:
    """Median seconds to import pfqint and finish the warm-up, each in a fresh interpreter."""
    times = []
    for _ in range(PROBES):
        out = _child([os.path.join(HERE, "run.py"), "--setup-probe", workload])
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def probe_bare_interpreter_ms() -> float:
    times = []
    for _ in range(PROBES):
        t0 = perf_counter()
        _child(["-c", "pass"])
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def probe_cli_import_ms() -> float:
    code = ("import time; t = time.perf_counter(); import pfqint.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(_child(["-c", code], _src_env()).stdout) * 1e3 for _ in range(PROBES)
    )


def setup_probe_main(workload: str) -> None:
    """Body of one set-up probe: import pfqint, then the warm-up calls.

    Prints the set-up seconds scaled like the timed phase (see Timer).
    """
    sys.path.insert(0, SRC)
    before = calibrate()
    t0 = perf_counter()
    import pfqint  # noqa: F401
    import pfqint.cli  # noqa: F401
    t_import = perf_counter() - t0
    sys.path.insert(0, HERE)
    import workloads

    wl = workloads.make(workload, ROOT)
    t1 = perf_counter()
    wl.warm_up()
    elapsed = t_import + perf_counter() - t1
    print(elapsed * CALIBRATION_REF_S / (0.5 * (before + calibrate())))


# --------------------------------------------------------------------------
# Phases.


@dataclass
class _Partial:
    value: complex
    terms: int


def _series(upper, lower, z) -> _Partial:
    total = comp = 0j
    term = 1 + 0j
    n = small = 0
    while n < 200:
        if n and abs(term) < 1e-15 * abs(total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        ratio = z / (n + 1)
        for a in upper:
            ratio *= a + n
        for b in lower:
            ratio /= b + n
        term *= ratio
        n += 1
    return _Partial(total, n)


def calibration_kernel() -> complex:
    """Fixed pure-Python work shaped like the library's: a tight complex
    recurrence, then hypergeometric-style series with calls and small objects."""
    total = 0j
    for rep in range(20):
        term, acc, z = 1 + 0j, 0j, complex(0.3 + rep * 0.01, 0.7)
        for n in range(1, 120):
            term = term * z / n * (1.5 + n) / (2.5 + n)
            acc += term
        total += acc
    for rep in range(48):
        upper = (complex(0.5 + 0.025 * rep), 1.5)
        lower = (complex(2.5), complex(1.25 + 0.0125 * rep), 3.0)
        total += _series(upper, lower, complex(0.8, 0.075 * rep)).value
    return total


def calibrate() -> float:
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


class Timer:
    """Times operations and scales them to the speed of a reference host.

    The host's speed swings by tens of per cent within seconds (other
    tenants, frequency changes), and the same work runs that much slower or
    faster.  After each BLOCK_S of measured time the calibration kernel runs,
    outside the measured time, and the time measured in that block is scaled
    by CALIBRATION_REF_S over the mean of this and the previous calibration.
    The kernel shares no code with pfqint, so a change to the program moves
    the scaled times in full; only the host's speed cancels.  A long
    operation can be measured in parts, so that it spans several blocks.
    """

    def __init__(self):
        self.latencies: list[float] = []  # scaled, one per operation
        self.busy = 0.0  # unscaled
        self.scaled_busy = 0.0
        self.calibrations = [calibrate()]
        self._block: list[tuple[int, float]] = []  # (operation, seconds)
        self._block_s = 0.0

    def begin(self) -> None:
        """Start a new operation; its time is the sum of its parts."""
        self.latencies.append(0.0)

    def part(self, fn, *args):
        """Call fn as one more piece of the current operation."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            dt = perf_counter() - t0
            self._block.append((len(self.latencies) - 1, dt))
            self.busy += dt
            self._block_s += dt
            if self._block_s >= BLOCK_S:
                self.close()

    def measure(self, fn, *args):
        """Call fn as one whole operation."""
        self.begin()
        return self.part(fn, *args)

    def close(self) -> None:
        """Calibrate and scale the time measured since the last calibration."""
        if not self._block:
            return
        now = calibrate()
        factor = CALIBRATION_REF_S / (0.5 * (self.calibrations[-1] + now))
        self.calibrations.append(now)
        for i, dt in self._block:
            self.latencies[i] += dt * factor
        self.scaled_busy += self._block_s * factor
        self._block = []
        self._block_s = 0.0


def timed_phase(wl, seed, seconds, max_ops):
    """Closed loop until the busy time reaches `seconds` and at least
    `wl.counted_tasks` tasks are done (or until `max_ops` operations).

    Busy time is the sum of the operations' own times; generating inputs
    between calls and calibrating do not count.
    """
    gen = wl.tasks(seed)
    timer = Timer()
    tasks, outcomes = [], []

    def more():
        if max_ops:
            return len(timer.latencies) < max_ops
        return timer.busy < seconds or len(tasks) < wl.counted_tasks

    while more():
        task = next(gen)
        outcomes.append(wl.execute(task, timer))
        tasks.append(task)
    timer.close()
    return tasks, outcomes, timer


def reference_phase(wl, tasks, outcomes):
    """One list of statuses per task, one status per operation."""
    t0 = perf_counter()
    statuses = [wl.check(task, outs, wl.references(task)) for task, outs in zip(tasks, outcomes)]
    return statuses, perf_counter() - t0


def _tally(statuses):
    import workloads

    flat = [s for task in statuses for s in task]
    return (len(flat), sum(s != workloads.OK for s in flat),
            sum(s == workloads.WRONG for s in flat))


def traced_replay(wl, tasks, recorder):
    """Replay every task untraced and traced, back to back.

    Which of the two goes first alternates, so host speed swings hit both
    alike and their time ratio is the tracing overhead.  Span self times are
    scaled like the timed phase, one calibration after every traced task.
    """
    times = [0.0, 0.0]  # untraced, traced
    n_ops = 0
    prev = calibrate()
    for i, task in enumerate(tasks):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = perf_counter()
            ops = recorder.op(wl.replay, task) if traced else wl.replay(task)
            times[traced] += perf_counter() - t0
            if traced:
                n_ops += len(ops)
                now = calibrate()
                recorder.mark(CALIBRATION_REF_S / (0.5 * (prev + now)))
                prev = now
    return times[0], times[1], n_ops


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(latencies)
    idx = max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def per_layer_metrics(summary, n_ops, extra):
    per, rel = summary["per"], summary["rel"]

    def calls(name):
        return per.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, rec in per.items():
        layer = "bench" if name == "op" else name
        values[layer + ".calls"] = rec["calls"] / n_ops
        values[layer + ".self_ms"] = rec["self_s"] * 1e3 / n_ops
    pfq = per["special_functions.pfq"]
    values["special_functions.pfq.terms"] = pfq["a"] / n_ops
    values["special_functions.pfq.not_converged"] = pfq["b"] / n_ops
    outer = per["series_integrals.series_block"]["a"]
    values["series_integrals.outer_terms"] = outer / n_ops
    values["series_integrals.pfq_per_outer_term"] = ratio(rel["pfq_in_block"], outer)
    values["series_integrals.blocks_per_antiderivative"] = ratio(
        rel["blocks_in_antiderivative"], calls("series_integrals.antiderivative"))
    values["identities.blocks_per_residual"] = ratio(
        rel["blocks_in_residual"], calls("identities.theorem_residual"))
    values["oracle.quad.evaluations"] = rel["quad_evaluations"] / n_ops
    values["oracle.fd.f_evals_per_call"] = ratio(per.get("oracle.fd", {}).get("a", 0.0),
                                                 calls("oracle.fd"))
    values["orr_sommerfeld.evals_per_phi"] = ratio(rel["evals_in_phi"],
                                                   calls("orr_sommerfeld.phi_quadrature"))
    values["orr_sommerfeld.phi_per_residual"] = ratio(rel["phi_in_residual"],
                                                      calls("orr_sommerfeld.os_residual"))
    values.update(extra)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER}


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU of the allowed set.

    The calibration kernel then runs on the core that runs the measured
    work, child interpreters included, and no migration interrupts a call.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass


def run_workload(name, seed, seconds, trace, max_ops):
    import workloads

    pin_to_one_cpu()
    wl = workloads.make(name, ROOT)
    wl.warm_up()
    tasks, outcomes, timer = timed_phase(wl, seed, seconds, max_ops)
    latencies = timer.latencies
    n = len(latencies)
    statuses, reference_s = reference_phase(wl, tasks, outcomes)
    # Every operation is checked.  The accuracy counts (attempted, failed,
    # the *_frac metrics) cover the operations of the first counted tasks:
    # a set fixed by the seed alone, so that two runs on one seed report the
    # same counts however fast the host is, and two versions of the program
    # are judged on the same inputs.
    counted = len(tasks) if max_ops else wl.counted_tasks
    attempted, failed, wrong = _tally(statuses[:counted])
    checked, failed_all, wrong_all = _tally(statuses)
    correct = checked == n and failed_all <= MAX_FAIL_SHARE * n
    tail_ms, beyond = tail(latencies, wl.tail_percentile)
    say(f"workload {name} seed {seed}: {n} operations in {len(tasks)} tasks, "
        f"{timer.busy:.3f} s busy, closed loop with one client")
    say(f"unscaled throughput {n / timer.busy:.6g} ops/s; median speed factor "
        f"{CALIBRATION_REF_S / statistics.median(timer.calibrations):.4g} over "
        f"{len(timer.calibrations)} calibrations")
    say(f"fail_frac {failed / attempted:.6g} fraction ({failed} of the {attempted} "
        f"operations of the first {counted} tasks), wrong_frac {wrong / attempted:.6g} "
        f"fraction ({wrong} silent)")
    say(f"all {checked} operations checked: {failed_all} failed, {wrong_all} silent")
    say(f"latency_tail_ms is p{wl.tail_percentile:g} with {beyond} samples beyond it")
    if beyond < 10:
        say("warning: fewer than 10 samples beyond the tail percentile")
    say("no wait metric: the program is single-threaded and no layer queues")
    record = {
        "workload": name, "seed": seed, "operations": n, "tasks": len(tasks),
        "counted_tasks": counted, "counted_operations": attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "mpmath": __import__("mpmath").__version__, "git_sha": git_sha(),
        "reference_s": reference_s, "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": beyond,
    }

    if not trace:
        metrics = {
            "throughput_ops_s": n / timer.scaled_busy,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail_ms * 1e3,
            "ok_frac": 1.0 - failed / attempted,
            "honest_frac": 1.0 - wrong / attempted,
            "setup_s": probe_setup(name),
        }
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    else:
        import tracer

        recorder = tracer.SpanRecorder()
        untraced_s, traced_s, replayed = traced_replay(wl, tasks, recorder)
        extra = {
            "cli.import_ms": probe_cli_import_ms(),
            "trace.untraced_ops_s": replayed / untraced_s,
            "trace.traced_ops_s": replayed / traced_s,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
            "accuracy.fail_frac": failed / attempted,
            "accuracy.wrong_frac": wrong / attempted,
        }
        metrics = per_layer_metrics(recorder.summary(), replayed, extra)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.tsv")
        recorder.write(spans_path)
        say(f"traced replay of {replayed} operations: overhead "
            f"{extra['trace.overhead_frac']:.3%} of the untraced replay; spans in "
            f"{os.path.relpath(spans_path, ROOT)}")
    bare = probe_bare_interpreter_ms()
    record["cli.bare_interpreter_ms"] = bare
    if trace:
        metrics["cli.bare_interpreter_ms"]["value"] = bare
    for key, m in metrics.items():
        say(f"{key} {m['value']:.6g} {m['unit']}")
    say("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own interpreter."""
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="stop after this many operations instead of --seconds; "
                             "all of them are counted")
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pfqint", "__init__.py")):
        print(f"error: no pfqint sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe_main(args.setup_probe)
        return 0
    try:
        import mpmath  # noqa: F401
    except ImportError:
        print("error: the reference checks need mpmath", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    run_workload(args.workload, args.seed, args.seconds, args.trace, args.ops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
