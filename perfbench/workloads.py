"""Seeded workloads: input generation, the timed calls into pfqint, and the
reference checks that classify every operation.

Each workload turns a seed into an endless stream of *tasks* (plain numbers
only; the program receives nothing else).  Executing a task calls pfqint,
timing every *operation* through ``timer.measure``, and returns one outcome
per operation; for most workloads a task is one operation, for ``os_mode``
it is one parameter set whose phi evaluations are the operations.  ``check`` later compares each outcome with
mpmath references and returns one status per operation:

* ``ok``      usable answer within the acceptance tolerance,
* ``flagged`` an exception, ``converged=False``, a warning or CLI exit != 0,
* ``wrong``   reported as converged but outside the tolerance (silent).

pfqint is always reached through module attributes (``si.antiderivative``,
``osm.phi_quadrature``) so that the tracer in ``tracer.py`` sees every call.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import pfqint.cli as cli
import pfqint.identities as ids
import pfqint.oracle as oracle
import pfqint.orr_sommerfeld as osm
import pfqint.series_integrals as si
import pfqint.special_functions as sf
import pfqint.transforms as tr

import refs

OK, FLAGGED, WRONG = "ok", "flagged", "wrong"

# Acceptance-gate tolerances (tests/test_acceptance.py).
TOL_SERIES = 1e-8  # series values, definite integrals, identity residuals
TOL_FD = 1e-6  # Richardson derivatives of the antiderivative
TOL_LEMMA = 1e-12  # product identity
TOL_OS = 1e-4  # normalized operator residual of the stability mode
TOL_MOMENT = 1e-7  # Fourier moments, relative with floor 1e-8
# pfq_1f1_asymptotic reports converged only when its first omitted
# correction is below this share of the value; that is its accuracy claim.
TOL_ASYMPTOTIC = 1e-4

WARMUP_SEED = -1


@dataclass
class Outcome:
    """What one pfqint call gave: a value and its error estimate, or a flag."""

    value: complex | None = None
    flagged: bool = False
    err: float = 0.0


def _guard(fn, *args):
    """Call fn; an exception becomes a flagged Outcome instead of ending the run."""
    try:
        return fn(*args)
    except Exception:  # the benchmark keeps running and counts it
        return Outcome(flagged=True)


def _as_outcome(res) -> Outcome:
    return res if isinstance(res, Outcome) else Outcome(res)


def _series_outcome(res) -> Outcome:
    if isinstance(res, Outcome):
        return res
    return Outcome(res.value, not res.converged, res.error_estimate)


def _status(out: Outcome, ok: bool) -> str:
    if out.flagged:
        return FLAGGED
    return OK if ok else WRONG


def _worst(statuses) -> str:
    if WRONG in statuses:
        return WRONG
    return FLAGGED if FLAGGED in statuses else OK


class Sampler:
    """Seeded draws in which categories and strata come in balanced passes.

    ``pick`` deals from a shuffled deck holding every option once (or as
    often as it is listed) and ``stratified`` takes one value from each of n
    equal slices of a range per pass.  A run's mix of cases then hardly
    depends on the seed, which keeps the run-to-run spread of its means
    small, while every input is still fresh.
    """

    def __init__(self, seed_text: str):
        self.rng = random.Random(seed_text)
        self._decks: dict[str, list] = {}

    def uniform(self, lo, hi):
        return self.rng.uniform(lo, hi)

    def randint(self, lo, hi):
        return self.rng.randint(lo, hi)

    def pick(self, key, options):
        deck = self._decks.get(key)
        if not deck:
            deck = list(options)
            self.rng.shuffle(deck)
            self._decks[key] = deck
        return deck.pop()

    def stratified(self, key, lo, hi, n=8, log=False):
        u = (self.pick(key, range(n)) + self.rng.random()) / n
        if log:
            return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        return lo + u * (hi - lo)

    def grid(self, key, ranges, cells):
        """One point from each cell of a grid over several ranges per pass."""
        cell = self.pick(key, itertools.product(*(range(n) for n in cells)))
        return tuple(lo + (i + self.rng.random()) / n * (hi - lo)
                     for (lo, hi), i, n in zip(ranges, cell, cells))

    def direction(self, key, complex_case=True):
        """Unit factor: a random phase, or +/-1 for a real case."""
        if complex_case:
            return cmath.exp(1j * self.rng.uniform(-math.pi, math.pi))
        return self.pick(key + ".sign", (1.0, -1.0))


def _spec(t):
    kernel, alpha, beta, eta, lam, gamma, upper, lower = t
    return si.IntegrandSpec(kernel, alpha, beta, eta, lam, gamma, sf.PFqParams(upper, lower))


def _params(s, p, q):
    return (
        tuple(s.uniform(0.3, 2.5) for _ in range(p)),
        tuple(s.uniform(0.6, 3.0) for _ in range(q)),
    )


class Untimed:
    """Stand-in for the runner's timer where nothing is measured."""

    @staticmethod
    def begin():
        pass

    @staticmethod
    def part(fn, *args):
        return fn(*args)

    measure = part


class Workload:
    name = ""
    tail_percentile = 99.0
    warmup_tasks = 1
    # Tasks at the head of the seeded stream whose operations the accuracy
    # counts cover.  A run goes on until these are done even if its seconds
    # are up; half to three quarters of a 10-second run on the reference host.
    counted_tasks = 1

    def tasks(self, seed):
        s = Sampler(f"{self.name}:{seed}")
        while True:
            yield self.make_task(s)

    def make_task(self, s):
        raise NotImplementedError

    def execute(self, task, timer):
        return [timer.measure(self.run, task)]

    def run(self, task):
        raise NotImplementedError

    def replay(self, task):
        """The in-process form of a task, run under tracing."""
        return self.execute(task, Untimed)

    def references(self, task):
        raise NotImplementedError

    def check(self, task, outcomes, ref) -> list[str]:
        raise NotImplementedError

    def warm_up(self):
        gen = self.tasks(WARMUP_SEED)
        for _ in range(self.warmup_tasks):
            self.execute(next(gen), Untimed)


# --------------------------------------------------------------------------
# eval_mix: independent library calls on fresh inputs.

_INNER = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 1))
_PFQ_REGIMES = ("terminating", "small", "large", "asymptotic")
_KERNELS = ("exp", "cosh", "sinh", "cos", "sin")


def mix_spec(s):
    """Spec and evaluation point with |eta x^beta| log-spread over 0.1..15.

    Half the cases have complex eta and lam.  The inner argument stays
    inside |z| < 1 for 2F1 and reaches |z| = 3 for the other inner series.
    """
    # Kernel, inner series and |eta x^beta| set most of the cost, so every
    # combination of them (with |eta x^beta| in 8 slices) comes once per pass.
    w_slice, kernel, (p, q) = s.pick("mix", itertools.product(range(8), _KERNELS, _INNER))
    w = 0.1 * 150.0 ** ((w_slice + s.uniform(0.0, 1.0)) / 8)
    alpha = s.uniform(-0.5, 1.5)
    beta = s.pick("beta", (0.5, 1.0, 1.5, 2.0))
    gamma = s.pick("gamma", (1.0, 2.0))
    x = s.uniform(0.3, 1.9)
    complex_case = s.pick("complex", (True, False))
    eta = w / x**beta * s.direction("eta", complex_case)
    upper, lower = _params(s, p, q)
    if (p, q) == (2, 1):
        z_mag = s.stratified("z21", 0.05, 0.8)
    else:
        z_mag = s.stratified("z", 0.05, 3.0, log=True)
    lam = z_mag / x**gamma * s.direction("lam", complex_case)
    return (kernel, alpha, beta, eta, lam, gamma, upper, lower), x


def pfq_case(s, regimes=_PFQ_REGIMES):
    regime = s.pick("regime", regimes)
    if regime == "terminating":
        upper = (-float(s.randint(1, 12)), s.uniform(0.3, 2.5))
        lower = (s.uniform(0.6, 3.0),)
        return regime, upper, lower, s.uniform(0.2, 3.0) * s.direction("pfq")
    if regime == "small":
        upper, lower = _params(s, *s.pick("small", _INNER))
        return regime, upper, lower, s.stratified("small_z", 0.01, 0.5, log=True) * s.direction("pfq")
    if regime == "large":
        upper, lower = _params(s, *s.pick("large", ((0, 1), (1, 1), (1, 2))))
        return regime, upper, lower, s.stratified("large_z", 5.0, 25.0) * s.direction("pfq")
    # Left half plane, where the convergent series is hopeless.
    upper, lower = _params(s, 1, 1)
    z = s.stratified("asym_z", 1e3, 1e5, log=True) * cmath.exp(1j * s.uniform(0.5, 1.0) * math.pi)
    return regime, upper, lower, z if s.pick("asym_half", (True, False)) else z.conjugate()


class EvalMix(Workload):
    """One operation is one library call; nothing is shared between calls."""

    name = "eval_mix"
    tail_percentile = 98.0
    counted_tasks = 3200
    warmup_tasks = 24

    # Shares of 100 calls: most of the time goes to the double series.
    KINDS = (("antideriv",) * 50 + ("definite",) * 30 + ("pfq",) * 8
             + ("fourier", "laplace", "erf", "airy") * 3)

    def make_task(self, s):
        kind = s.pick("kind", self.KINDS)
        if kind == "antideriv":
            spec, x = mix_spec(s)
            return ("antideriv", spec, x)
        if kind == "definite":
            spec, b = mix_spec(s)
            return ("definite", spec, b * s.uniform(0.05, 0.6), b)
        if kind == "pfq":
            return ("pfq",) + pfq_case(s)
        if kind == "fourier":
            return ("fourier", s.pick("alpha", range(4)), s.uniform(0.5, 2.0), s.uniform(0.0, 4.0))
        if kind == "laplace":
            theta = s.uniform(0.5, 2.0)
            u_val = theta * s.uniform(8.0, 40.0) * cmath.exp(1j * s.uniform(-0.5, 0.5))
            return ("laplace", s.uniform(0.0, 2.0), theta, u_val)
        if kind == "erf":
            return ("erf", s.stratified("erf_u", 10.0, 1000.0, log=True))
        return ("airy", s.uniform(0.0, 6.0) * s.direction("airy"))

    def run(self, task):
        kind = task[0]
        if kind == "antideriv":
            return _series_outcome(_guard(si.antiderivative, _spec(task[1]), task[2]))
        if kind == "definite":
            return _series_outcome(_guard(si.definite_integral, _spec(task[1]), task[2], task[3]))
        if kind == "pfq":
            _, regime, upper, lower, z = task
            if regime == "asymptotic":
                return _series_outcome(_guard(sf.pfq_1f1_asymptotic, upper[0], lower[0], z))
            return _series_outcome(_guard(sf.pfq, sf.PFqParams(upper, lower), z))
        if kind == "fourier":
            return _as_outcome(_guard(tr.fourier_moment_gaussian, *task[1:]))
        if kind == "laplace":
            return _series_outcome(_guard(tr.laplace_moment_gaussian, *task[1:]))
        if kind == "erf":
            return _series_outcome(_guard(tr.laplace_erf, task[1]))
        return _series_outcome(_guard(osm.airy_ai, task[1]))

    def references(self, task):
        kind = task[0]
        if kind == "antideriv":
            return refs.antiderivative(task[1], task[2])
        if kind == "definite":
            return refs.definite(task[1], task[2], task[3])
        if kind == "pfq":
            return refs.hyper(task[2], task[3], task[4])
        if kind == "fourier":
            return refs.fourier_moment(*task[1:])
        if kind == "laplace":
            return refs.laplace_moment(*task[1:])
        if kind == "erf":
            return refs.laplace_erf(task[1])
        return refs.airy(task[1])

    def check(self, task, outcomes, ref):
        out, = outcomes
        return [_status(out, not out.flagged and value_ok(task, out, ref))]


def value_ok(task, out: Outcome, ref) -> bool:
    """Acceptance tolerance for one eval_mix-style value against its reference."""
    kind = task[0]
    if kind == "fourier":
        return refs.relerr(out.value, ref, floor=1e-8) <= TOL_MOMENT
    if kind in ("laplace", "erf"):
        # Criterion 3: the reported first-omitted-term bound must hold.
        return abs(out.value - ref) <= out.err + 1e-16
    if kind == "pfq" and task[1] == "asymptotic":
        return refs.relerr(out.value, ref) <= TOL_ASYMPTOTIC
    return refs.relerr(out.value, ref) <= TOL_SERIES


# --------------------------------------------------------------------------
# verify_sweep: the acceptance gate's checks on one fresh spec per operation.


def gate_spec(s):
    """Benign real spec, shaped like the acceptance gate's random specs."""
    kernel = s.pick("kernel", _KERNELS)
    alpha = s.uniform(-0.5, 1.5)
    beta = s.pick("beta", (0.5, 1.0, 1.5, 2.0))
    gamma = s.pick("gamma", (1.0, 2.0))
    eta = s.uniform(-1.0, 1.0)
    lam = s.uniform(-0.4, 0.4) / 2.0**gamma
    p = s.pick("p", (0, 0, 1))
    upper, lower = _params(s, p, s.pick("q", (p, p + 1)))
    return (kernel, alpha, beta, eta, lam, gamma, upper, lower)


def _kernel_size(spec, x):
    kernel, alpha, beta, eta = spec[:4]
    fn = {"exp": cmath.exp, "cosh": cmath.cosh, "sinh": cmath.sinh,
          "cos": cmath.cos, "sin": cmath.sin}[kernel]
    return abs(x**alpha * fn(eta * x**beta))


def identity_spec(rng, x):
    """Small-argument identity case; half complex, as in the gate."""
    alpha = rng.uniform(-0.5, 2.0)
    beta = rng.choice((0.5, 1.0, 1.5, 2.0))
    gamma = rng.choice((1.0, 2.0, 3.0))
    eta = complex(rng.uniform(-1.5, 1.5), 0.0)
    lam_scale = 1.0
    if rng.random() < 0.5:
        eta += 1j * rng.uniform(-1.0, 1.0)
        lam_scale = rng.uniform(0.2, 1.0) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if abs(eta) * x**beta > 2.0:
        eta = 2.0 * eta / (abs(eta) * x**beta)
    lam = lam_scale * rng.uniform(-0.5, 0.5) / max(1.0, x**gamma)
    if abs(lam) * x**gamma > 0.5:
        lam = 0.5 * lam / (abs(lam) * x**gamma)
    p = rng.choice((0, 0, 1))
    upper, lower = (tuple(rng.uniform(0.3, 2.5) for _ in range(p)),
                    tuple(rng.uniform(0.6, 3.0) for _ in range(rng.choice((p, p + 1)))))
    return ("exp", alpha, beta, eta, lam, gamma, upper, lower)


def lemma_case(rng):
    """Pole-avoiding (alpha, beta, gamma, n, j) for the product identity."""
    while True:
        alpha, beta = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        gamma = rng.choice((1.0, -1.0, 2.0, -2.0, 3.0))
        n, j = rng.randint(0, 6), rng.randint(0, 6)
        bases = [alpha + m * beta + 1.0 for m in range(j + 1)]
        if all(
            abs(b) >= 0.05 and abs(b + gamma) >= 0.05
            and all(abs(b / gamma + e) >= 0.05 and abs((b + gamma) / gamma + e) >= 0.05
                    for e in range(n))
            for b in bases
        ):
            return (alpha, beta, gamma, n, j)


_THEOREMS = ("t1", "t2", "t3", "t4", "t5", "t6")
_DEF_A, _DEF_B = 0.1, 2.0


class VerifySweep(Workload):
    """One operation is one spec taken through every acceptance-gate check."""

    name = "verify_sweep"
    tail_percentile = 90.0
    counted_tasks = 100

    def make_task(self, s):
        rng = s.rng
        while True:
            spec = gate_spec(s)
            xs = []
            for _ in range(60):
                x = rng.uniform(0.3, 1.9)
                if _kernel_size(spec, x) >= 5e-2:
                    xs.append(x)
                    if len(xs) == 3:
                        break
            if len(xs) == 3:
                break
        ix = rng.uniform(0.3, 1.2)
        theta = rng.uniform(0.5, 2.0)
        return {
            "spec": spec, "xs": tuple(xs),
            "ispec": identity_spec(rng, ix), "ix": ix,
            "lemma": tuple(lemma_case(rng) for _ in range(20)),
            "fourier": (s.pick("alpha", range(4)), rng.uniform(1.0, 2.0), rng.uniform(0.0, 2.0)),
            "laplace": (rng.uniform(0.0, 1.0), theta, theta * rng.uniform(8.0, 40.0)),
        }

    def execute(self, task, timer):
        # Timed in parts, so that the 50 ms operation spans several
        # calibration blocks.
        timer.begin()
        return [self.run(task, timer.part)]

    def run(self, task, part):
        spec = part(_spec, task["spec"])
        F = lambda xx: si.antiderivative(spec, xx).value
        fd = [part(_guard, oracle.fd_derivative, F, x, TOL_FD) for x in task["xs"]]
        definite = _series_outcome(part(_guard, si.definite_integral, spec, _DEF_A, _DEF_B))
        quad = _series_outcome(part(
            _guard, oracle.quad_finite, lambda t: si.integrand_value(spec, t), _DEF_A, _DEF_B, 1e-11))
        ispec = part(_spec, task["ispec"])
        theorems = [
            part(_guard, lambda tid: ids.theorem_residual(
                ids.IdentityCase(identity_id=tid, spec=ispec, x=task["ix"])), tid)
            for tid in _THEOREMS
        ]
        lemma = [part(_guard, ids.lemma1_residual, *c) for c in task["lemma"]]
        alpha, theta, k = task["fourier"]
        env = lambda x: x**alpha * math.exp(-theta * theta * x * x)
        fourier = part(_guard, tr.fourier_moment_gaussian, alpha, theta, k)
        f_cos = _series_outcome(part(_guard, oracle.quad_oscillatory_fourier, env, k, 1e-11, "cos"))
        f_sin = _series_outcome(part(_guard, oracle.quad_oscillatory_fourier, env, k, 1e-11, "sin"))
        la, lt, lu = task["laplace"]
        laplace = _series_outcome(part(_guard, tr.laplace_moment_gaussian, la, lt, lu))
        l_quad = _series_outcome(part(
            _guard, oracle.quad_semi_infinite,
            lambda x: x**la * math.exp(-lt * lt * x * x - lu * x), 1e-13))
        return {
            "fd": fd, "definite": definite, "quad": quad, "theorems": theorems,
            "lemma": lemma, "fourier": fourier, "f_cos": f_cos, "f_sin": f_sin,
            "laplace": laplace, "l_quad": l_quad,
        }

    def references(self, task):
        return {
            "integrand": [refs.integrand(task["spec"], x) for x in task["xs"]],
            "definite": refs.definite(task["spec"], _DEF_A, _DEF_B),
            "fourier": refs.fourier_moment(*task["fourier"]),
            "laplace": refs.laplace_moment(*task["laplace"]),
        }

    def check(self, task, outcomes, ref):
        r, = outcomes
        st = []
        for d, want in zip(r["fd"], ref["integrand"]):
            out = _as_outcome(d)
            st.append(_status(out, not out.flagged and refs.relerr(out.value, want) <= TOL_FD))
        for out in (r["definite"], r["quad"]):
            st.append(_status(out, not out.flagged
                              and refs.relerr(out.value, ref["definite"]) <= TOL_SERIES))
        for res in r["theorems"]:
            out = _as_outcome(res)
            st.append(_status(out, not out.flagged and out.value.real <= TOL_SERIES))
        for res in r["lemma"]:
            out = _as_outcome(res)
            st.append(_status(out, not out.flagged and out.value.real <= TOL_LEMMA))
        fourier = _as_outcome(r["fourier"])
        st.append(_status(fourier, not fourier.flagged
                          and refs.relerr(fourier.value, ref["fourier"], 1e-8) <= TOL_MOMENT))
        f_oracle = Outcome(
            None if r["f_cos"].flagged or r["f_sin"].flagged else r["f_cos"].value + 1j * r["f_sin"].value,
            r["f_cos"].flagged or r["f_sin"].flagged,
        )
        st.append(_status(f_oracle, not f_oracle.flagged
                          and refs.relerr(f_oracle.value, ref["fourier"], 1e-8) <= TOL_MOMENT))
        lap = r["laplace"]
        st.append(_status(lap, not lap.flagged and abs(lap.value - ref["laplace"]) <= lap.err + 1e-16))
        lq = r["l_quad"]
        st.append(_status(lq, not lq.flagged and refs.relerr(lq.value, ref["laplace"]) <= TOL_SERIES))
        return [_worst(st)]


# --------------------------------------------------------------------------
# os_mode: stability-mode shapes; one operation is one phi evaluation.


def consistent_omega(k, r, reynolds):
    """omega for which lambda = i Re omega - r^2 k^2 vanishes."""
    return (r * r * k * k + 1j * r * r * k / reynolds) / (1j * reynolds - 1.0 / k)


class OSMode(Workload):
    """Per parameter set: a phi_quadrature y-sweep and os_residual calls."""

    name = "os_mode"
    tail_percentile = 85.0
    counted_tasks = 24
    sweep_points = 1
    residual_points = 1

    def make_task(self, s):
        # phi's cost depends on the three jointly, most steeply on Re at low
        # Re k, so a run visits every cell of a 3x2x6 grid before it repeats one.
        k, r, reynolds = s.grid("params", ((0.3, 1.0), (1.0, 2.0), (2.0, 50.0)), (3, 2, 6))
        ys = tuple(sorted(s.uniform(0.0, 2.0) for _ in range(self.sweep_points)))
        ry = tuple(s.uniform(0.2, 1.8) for _ in range(self.residual_points))
        return (k, r, reynolds, ys, ry)

    def execute(self, task, timer):
        k, r, reynolds, ys, ry = task
        params = osm.OSParams(k=k, r=r, reynolds=reynolds, omega=consistent_omega(k, r, reynolds))
        outs = [("sweep", timer.measure(_guard, osm.phi_quadrature, y, params), None) for y in ys]
        for y in ry:
            sols = []

            def phi_fn(yy):
                try:
                    sol = timer.measure(osm.phi_quadrature, yy, params)
                except Exception:
                    sols.append(Outcome(flagged=True))
                    raise
                sols.append(sol)
                return sol.phi

            residual = _guard(osm.os_residual, y, params, phi_fn)
            outs.extend(("residual", sol, residual) for sol in sols)
        return outs

    def warm_up(self):
        k, r, reynolds, ys, _ = next(self.tasks(WARMUP_SEED))
        params = osm.OSParams(k=k, r=r, reynolds=reynolds, omega=consistent_omega(k, r, reynolds))
        for y in ys:
            osm.phi_quadrature(y, params)

    def references(self, task):
        k, r, reynolds, ys, _ = task
        omega = consistent_omega(k, r, reynolds)
        return [refs.phi(y, k, r, reynolds, omega) for y in ys]

    def check(self, task, outcomes, ref):
        sweep_refs = iter(ref)
        statuses = []
        for kind, sol, residual in outcomes:
            if isinstance(sol, Outcome) or isinstance(residual, Outcome):
                statuses.append(FLAGGED)
                if kind == "sweep":
                    next(sweep_refs)
                continue
            out = Outcome(sol.phi, bool(sol.warnings) or not cmath.isfinite(sol.phi))
            if kind == "sweep":
                ok = refs.relerr(sol.phi, next(sweep_refs)) <= TOL_SERIES
            else:
                # An exactly-zero phi makes the normalized residual vacuous.
                ok = sol.phi != 0 and residual <= TOL_OS
            statuses.append(_status(out, ok))
        return statuses


# --------------------------------------------------------------------------
# cli_calls: one child interpreter per operation.

CLI_SNIPPET = "from pfqint.cli import main; main()"
_CLI_KINDS = ("pfq", "antideriv", "definite", "identity-check", "fourier",
              "laplace", "airy", "os-solve", "sweep-json", "sweep-csv")


def _num(v) -> str:
    return repr(float(v))


def _flag(name, value) -> str:
    # "--name=value": argparse would take a leading "-" of a value such as
    # "-3.0,1.5" or "-1e-05" for an option.
    return f"--{name}={value if isinstance(value, str) else _num(value)}"


def _params_flags(prefix, values):
    if not values:
        return []
    return [_flag(prefix, ",".join(_num(complex(v).real) for v in values)),
            _flag(prefix + "-im", ",".join(_num(complex(v).imag) for v in values))]


def _complex_flags(name, value):
    value = complex(value)
    return [_flag(name, value.real), _flag(name + "-im", value.imag)]


def _spec_flags(spec):
    kernel, alpha, beta, eta, lam, gamma, upper, lower = spec
    return (["--kernel", kernel, _flag("alpha", alpha), _flag("beta", beta)]
            + _complex_flags("eta", eta) + _complex_flags("lambda", lam)
            + [_flag("gamma", gamma)]
            + _params_flags("p-params", upper) + _params_flags("q-params", lower))


class CliCalls(Workload):
    """Sequential child processes of the entry point, every subcommand in turn."""

    name = "cli_calls"
    tail_percentile = 80.0
    counted_tasks = 50  # five rounds of the ten kinds of call

    def __init__(self, root):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def make_task(self, s):
        """(kind, argv, reference inputs) for one invocation."""
        kind = s.pick("kind", _CLI_KINDS)
        rng = s.rng
        if kind == "pfq":
            # The CLI has only the convergent engine.
            _, upper, lower, z = pfq_case(s, _PFQ_REGIMES[:3])
            return (kind, ["pfq"] + _params_flags("p-params", upper) + _params_flags("q-params", lower)
                    + _complex_flags("z", z), (upper, lower, z))
        if kind in ("antideriv", "definite"):
            spec, x = mix_spec(s)
            if kind == "antideriv":
                return (kind, ["antideriv"] + _spec_flags(spec) + [_flag("x", x)], (spec, x))
            a = x * rng.uniform(0.05, 0.6)
            return (kind, ["definite"] + _spec_flags(spec) + [_flag("a", a), _flag("b", x)],
                    (spec, a, x))
        if kind == "identity-check":
            x = rng.uniform(0.3, 1.2)
            return (kind, ["identity-check", "--id", rng.choice(_THEOREMS)]
                    + _spec_flags(identity_spec(rng, x)) + [_flag("x", x)], None)
        if kind == "fourier":
            alpha, theta, k = rng.randint(0, 3), rng.uniform(0.5, 2.0), rng.uniform(0.0, 4.0)
            return (kind, ["fourier", f"--alpha={alpha}", _flag("theta", theta), _flag("k", k)],
                    (alpha, theta, k))
        if kind == "laplace":
            alpha, theta = rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0)
            u = theta * rng.uniform(8.0, 40.0)
            return (kind, ["laplace", _flag("alpha", alpha), _flag("theta", theta), _flag("u", u)],
                    (alpha, theta, u))
        if kind == "airy":
            z = rng.uniform(0.0, 6.0) * s.direction("airy")
            return (kind, ["airy"] + _complex_flags("z", z), z)
        if kind == "os-solve":
            k, r, reynolds = rng.uniform(0.3, 1.0), rng.uniform(1.0, 2.0), rng.uniform(2.0, 50.0)
            omega = consistent_omega(k, r, reynolds)
            y = rng.uniform(0.0, 2.0)
            return (kind, ["os-solve", _flag("y", y), _flag("k", k), _flag("r", r),
                           _flag("re", reynolds)] + _complex_flags("omega", omega),
                    (y, k, r, reynolds, omega))
        start = rng.uniform(-3.0, 0.0)
        stop = start + rng.uniform(1.0, 3.0)
        grid = [start + (stop - start) * i / 100 for i in range(101)]
        if kind == "sweep-json":
            return (kind, ["sweep", "airy", "--param", "z", _flag("start", start),
                           _flag("stop", stop), "--steps", "100"], grid)
        b = rng.uniform(0.6, 3.0)
        return (kind, ["sweep", "pfq", _flag("q-params", b), "--param", "z", _flag("start", start),
                       _flag("stop", stop), "--steps", "100", "--format", "csv"],
                (b, grid))

    def run(self, task):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_SNIPPET, *task[1]],
            cwd=self.root, env=self.env, capture_output=True, text=True, check=False,
        )
        return (proc.returncode, proc.stdout)

    def replay(self, task):
        return [self.in_process(task[1])]

    @staticmethod
    def in_process(argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(argv), out, err)
        return (code, out.getvalue())

    def warm_up(self):
        self.in_process(["pfq", "--p-params", "1", "--q-params", "2", "--z", "1"])

    def references(self, task):
        kind, argv, inputs = task
        expected = self.in_process(argv)
        if kind == "pfq":
            want = refs.hyper(*inputs)
        elif kind == "antideriv":
            want = refs.antiderivative(*inputs)
        elif kind == "definite":
            want = refs.definite(*inputs)
        elif kind == "fourier":
            want = refs.fourier_moment(*inputs)
        elif kind == "laplace":
            want = refs.laplace_moment(*inputs)
        elif kind == "airy":
            want = refs.airy(inputs)
        elif kind == "os-solve":
            want = refs.phi(*inputs)
        elif kind == "sweep-json":
            want = [refs.airy(z) for z in inputs]
        elif kind == "sweep-csv":
            b, grid = inputs
            want = [refs.hyper((), (b,), z) for z in grid]
        else:
            want = None
        return expected, want

    def check(self, task, outcomes, ref):
        kind = task[0]
        (code, stdout), = outcomes
        expected, want = ref
        if code != 0:
            return [FLAGGED]
        if (code, stdout) != expected:
            return [WRONG]
        if kind == "sweep-json":
            rows = json.loads(stdout)["rows"]
        elif kind == "sweep-csv":
            rows = [{"value_re": float(row["value_re"]), "value_im": float(row["value_im"]),
                     "error_estimate": float(row["error_estimate"])}
                    for row in csv.DictReader(io.StringIO(stdout))]
        else:
            rows = [json.loads(stdout)]
        if kind in ("sweep-json", "sweep-csv"):
            wants = want
        else:
            wants = [want]
        if len(rows) != len(wants):
            return [WRONG]
        for row, w in zip(rows, wants):
            value = complex(row["value_re"], row["value_im"])
            if kind == "identity-check":
                ok = value.real <= TOL_SERIES
            elif kind == "fourier":
                ok = refs.relerr(value, w, 1e-8) <= TOL_MOMENT
            elif kind == "laplace":
                ok = abs(value - w) <= row["error_estimate"] + 1e-16
            else:
                ok = refs.relerr(value, w) <= TOL_SERIES
            if not ok:
                return [WRONG]
        return [OK]


def make(name: str, root: str) -> Workload:
    if name == "cli_calls":
        return CliCalls(root)
    return {"eval_mix": EvalMix, "verify_sweep": VerifySweep, "os_mode": OSMode}[name]()

