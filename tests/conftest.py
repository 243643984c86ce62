"""Shared helpers: relative error with a floor, seeded case generators, the
per-term reference for the lifted double series, and the per-x form of the
lifted recurrence that the spec plan replaced."""

from __future__ import annotations

import cmath
import random

from pfqint import (
    DEFAULT_POLICY,
    IntegrandSpec,
    NotConverged,
    PFqParams,
    ProductPole,
    TruncationPolicy,
    lifted_params,
    pfq,
)
from pfqint.errors import DivergentSeries, LiftedLowerPole, LowerParameterPole, PfqintError
from pfqint.series_integrals import _PRODUCT_NEAR_POLE, _PRODUCT_POLE_TOL, _Block
from pfqint.special_functions import (
    CONVERGENT, SeriesEvaluation, _cancel_matching, _is_nonpositive_integer, _kahan_step,
    _terminating_index,
)

# Every randomized grid in the suite derives from this seed.
SEED = 20260810


def relerr(a, b, floor: float = 1e-300) -> float:
    a, b = complex(a), complex(b)
    return abs(a - b) / max(abs(a), abs(b), floor)


def random_integrand_spec(rng: random.Random, kernel: str | None = None,
                          x_max: float = 2.0) -> IntegrandSpec:
    """Spec with benign parameters: no outer-product poles for beta > 0,
    inner argument bounded well inside every convergence disc on (0, x_max]."""
    kernels = ("exp", "cosh", "sinh", "cos", "sin")
    kern = kernel if kernel is not None else rng.choice(kernels)
    alpha = rng.uniform(-0.5, 1.5)
    beta = rng.choice([0.5, 1.0, 1.5, 2.0])
    gamma = rng.choice([1.0, 2.0])
    eta = rng.uniform(-1.0, 1.0)
    lam = rng.uniform(-0.4, 0.4) / x_max**gamma
    p = rng.choice([0, 0, 1])
    q = rng.choice([p, p + 1])
    upper = tuple(rng.uniform(0.3, 2.5) for _ in range(p))
    lower = tuple(rng.uniform(0.6, 3.0) for _ in range(q))
    return IntegrandSpec(kern, alpha, beta, eta, lam, gamma,
                         PFqParams(upper, lower))


def random_identity_spec(rng: random.Random, x: float) -> IntegrandSpec:
    """Small-argument identity case: |eta x^beta| <= 2 and |lam x^gamma| <= 1/2.

    Half the cases carry complex eta and lam: with purely real parameters the
    trigonometric identities reduce to conjugate pairs whose floating-point
    sides coincide bitwise, which would verify nothing.
    """
    alpha = rng.uniform(-0.5, 2.0)
    beta = rng.choice([0.5, 1.0, 1.5, 2.0])
    gamma = rng.choice([1.0, 2.0, 3.0])
    eta = complex(rng.uniform(-1.5, 1.5), 0.0)
    lam_scale = 1.0
    if rng.random() < 0.5:
        eta += 1j * rng.uniform(-1.0, 1.0)
        lam_scale = rng.uniform(0.2, 1.0) * complex(
            rng.uniform(-1, 1), rng.uniform(-1, 1)
        )
    if abs(eta) * x**beta > 2.0:
        eta = 2.0 * eta / (abs(eta) * x**beta)
    lam = lam_scale * rng.uniform(-0.5, 0.5) / max(1.0, x**gamma)
    if abs(lam) * x**gamma > 0.5:
        lam = 0.5 * lam / (abs(lam) * x**gamma)
    p = rng.choice([0, 0, 1])
    q = rng.choice([p, p + 1])
    upper = tuple(rng.uniform(0.3, 2.5) for _ in range(p))
    lower = tuple(rng.uniform(0.6, 3.0) for _ in range(q))
    return IntegrandSpec("exp", alpha, beta, eta, lam, gamma,
                         PFqParams(upper, lower))


def lemma_cases(count: int, seed: int = SEED):
    """Pole-avoiding grid of (alpha, beta, gamma, n, j) tuples."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        alpha = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        gamma = rng.choice([1.0, -1.0, 2.0, -2.0, 3.0])
        n = rng.randint(0, 6)
        j = rng.randint(0, 6)
        ok = True
        for m in range(j + 1):
            base = alpha + m * beta + 1.0
            shifted = alpha + gamma + m * beta + 1.0
            if abs(base) < 0.05 or abs(shifted) < 0.05:
                ok = False
                break
            for ell in range(n):
                if abs(base / gamma + ell) < 0.05 or abs(shifted / gamma + ell) < 0.05:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            cases.append((alpha, beta, gamma, n, j))
    return cases


def reference_block(spec: IntegrandSpec, x: float, parity: str = "all",
                    alternating: bool = False, eta_scale: complex = 1.0,
                    policy: TruncationPolicy = DEFAULT_POLICY):
    """One outer sum of ``series_block`` with a fresh
    ``pfq(lifted_params(spec, c), lam*x^gamma)`` for every outer term.

    Returns (value, outer terms, inner evaluation per outer term,
    sum over j of |coeff_j * F_j|) and raises what the per-term evaluation
    raises, the outer product's ProductPole first.
    """
    t = spec.beta * (eta_scale * spec.eta) * (x**spec.beta if x else 0.0)
    z = spec.lam * x**spec.gamma if x else 0j
    stride, offset = {"all": (1, 0), "even": (2, 0), "odd": (2, 1)}[parity]
    total, size, small_run, inner = 0j, 0.0, 0, []
    j = 0
    while j < max(1, policy.max_terms // 10):
        count = stride * j + offset
        power = (-t) ** j if parity == "all" else t ** count
        if power == 0:
            break
        prod = 1.0 + 0.0j
        for m in range(count + 1):
            factor = spec.alpha + m * spec.beta + 1.0
            if abs(factor) <= 1e-12:
                raise ProductPole(f"alpha + m*beta + 1 vanishes at m = {m}")
            prod *= factor
        try:
            ev = pfq(lifted_params(spec, count), z, policy)
        except NotConverged as exc:
            ev = exc.result
        inner.append(ev)
        term = (-1) ** (alternating and j % 2) * power / prod * ev.value
        size += abs(term)
        if j > 0 and abs(term) < policy.rel_tol * abs(total) + policy.abs_tol:
            small_run += 1
        else:
            small_run = 0
        total += term
        j += 1
        if small_run >= policy.consecutive_small:
            break
    return total, j, inner, size


# The lifted recurrence and outer sum as they were before the x-independent
# part moved into the spec plan: everything is rebuilt for every (spec, x).
# Kept verbatim as the reference the plan-reading code must match exactly.


def _scaled(term: complex, zeros: int, num: complex, den: complex) -> tuple[complex, int]:
    """term * num / den, an exact zero of num (den) counted +1 (-1) in zeros instead.

    Where pfq cancels an equal upper/lower pair, their zero factors cancel in
    the count; a term whose count is positive is zero.
    """
    if num == 0:
        num, zeros = 1.0, zeros + 1
    if den == 0:
        den, zeros = 1.0, zeros - 1
    return term * num / den, zeros


class ReferenceLiftedSequence:
    """Inner factors F_c = pfq(lifted_params(spec, c), lam*x^gamma), c = 0, 1, ...

    Made for one (spec, x, policy) and shared by the blocks of one call.
    :meth:`get` returns F_c as pfq does up to rounding (``converged=False``
    where pfq raises NotConverged) and raises what lifted_params or pfq
    raises.  The vector holds the terms of the latest count, with their zero
    counts (:func:`_scaled`), as far as its sum read them; a longer sum
    appends terms built from the base terms.
    """

    def __init__(self, spec: IntegrandSpec, x: float, policy: TruncationPolicy = DEFAULT_POLICY):
        self.key = (spec, x, policy)
        self.z = spec.lam * (x**spec.gamma) if x != 0.0 else 0.0j
        self._base_params = _cancel_matching(spec.pfq.upper, spec.pfq.lower)
        self._base = [(1.0 + 0.0j, 0)]  # base pFq terms with their zero counts
        self._u, self._lifted_poles = [], []
        # Entries within tolerance of a nonpositive integer: only these can
        # raise, end the series, or cancel against an entry that does.
        self._special_upper = [a for a in spec.pfq.upper if _is_nonpositive_integer(a)]
        self._special_lower = [b for b in spec.pfq.lower if _is_nonpositive_integer(b)]
        self._terms, self._zeros = [], []  # inner terms of the latest count
        self._results: list[SeriesEvaluation | PfqintError] = []

    def get(self, count: int) -> SeriesEvaluation:
        """F_count, evaluating every count before it first."""
        while len(self._results) <= count:
            self._results.append(self._advance(len(self._results)))
        if isinstance(self._results[count], PfqintError):
            raise self._results[count]
        return self._results[count]

    def _advance(self, c: int) -> SeriesEvaluation | PfqintError:
        spec = self.key[0]
        u = (spec.alpha + c * spec.beta + 1.0) / spec.gamma
        v = (spec.alpha + spec.gamma + c * spec.beta + 1.0) / spec.gamma
        self._u.append(u)
        if _terminating_index([u]) is None:  # term 0 stays 1
            self._terms[1:] = [t * u / (u + n) for n, t in enumerate(self._terms[1:], 1)]
        else:
            for n in range(1, len(self._terms)):
                self._terms[n], self._zeros[n] = _scaled(self._terms[n], self._zeros[n], u, u + n)
        if _is_nonpositive_integer(u):
            self._special_upper.append(u)
        if _is_nonpositive_integer(v):
            self._special_lower.append(v)
            self._lifted_poles.append(v)
        # The checks of lifted_params and pfq, on the entries that can fail them.
        for b in self._lifted_poles:
            if b not in self._special_upper:
                return LiftedLowerPole(f"appended lower parameter {b} is a nonpositive integer")
        upper, lower = _cancel_matching(self._special_upper, self._special_lower)
        if lower:
            return LowerParameterPole(f"lower parameter {lower[0]} is a nonpositive integer")
        n_stop = _terminating_index(upper)
        excess = spec.pfq.p - spec.pfq.q
        if n_stop is None and self.z != 0 and (excess > 1 or excess == 1 and abs(self.z) >= 1.0):
            params = lifted_params(spec, c)  # for pfq's message
            p, q = map(len, _cancel_matching(params.upper, params.lower))
            return DivergentSeries(
                f"{p}F{q} has zero radius of convergence; use an asymptotic evaluator"
                if excess > 1 else f"{p}F{q} requires |z| < 1; got |z| = {abs(self.z):.6g}"
            )
        return self._sum(n_stop)

    def _grow(self) -> None:
        """Append the next term at the latest count: base term times every lift."""
        n = len(self._terms)
        if n == len(self._base):  # next base term by pfq's ratio
            k = n - 1
            term, zeros = self._base[k]
            ratio = self.z / n
            for a in self._base_params[0]:
                ratio, zeros = _scaled(ratio, zeros, a + k, 1.0)
            for b in self._base_params[1]:
                ratio, zeros = _scaled(ratio, zeros, 1.0, b + k)
            self._base.append((term * ratio, zeros))
        term, zeros = self._base[n]
        for u in self._u if n else ():
            term, zeros = _scaled(term, zeros, u, u + n)
        self._terms.append(term)
        self._zeros.append(zeros)

    def _sum(self, n_stop: int | None) -> SeriesEvaluation:
        """Kahan sum of the latest count's terms, stopped as pfq stops."""
        policy = self.key[2]
        terms, zeros = self._terms, self._zeros
        total = comp = 0.0 + 0.0j
        small_run = n = 0
        while n_stop is None or n <= n_stop:
            if n == len(terms):
                self._grow()
            term = terms[n] if zeros[n] <= 0 else 0.0j
            mag = abs(term)
            if n == policy.max_terms:
                break
            small = n > 0 and mag < policy.rel_tol * abs(total) + policy.abs_tol
            small_run = small_run + 1 if small else 0
            if small_run >= policy.consecutive_small:
                break
            y = term - comp
            s = total + y
            comp = (s - total) - y
            total = s
            n += 1
        else:
            mag = 0.0
        del terms[n + 1:], zeros[n + 1:]  # a later count rebuilds terms it needs
        converged = n < policy.max_terms or n_stop is not None and n > n_stop
        return SeriesEvaluation(total, n, mag, CONVERGENT, converged)


def reference_series_block(spec: IntegrandSpec, x: float, policy: TruncationPolicy = DEFAULT_POLICY,
                 parity: str = "all", alternating: bool = False, eta_scale: complex = 1.0,
                 lifted: ReferenceLiftedSequence | None = None) -> _Block:
    """One outer sum of the antiderivative series, without any prefactor.

    parity "all":  sum_j (-t)^j     / prod_{m=0..j}    (alpha+m*beta+1) * F_j
    parity "even": sum_j s_j t^(2j)  / prod_{m=0..2j}   (...)            * F_2j
    parity "odd":  sum_j s_j t^(2j+1)/ prod_{m=0..2j+1} (...)            * F_2j+1

    with t = beta*(eta_scale*eta)*x^beta, s_j = (-1)^j when ``alternating``
    (trigonometric kernels), and F_c the pFq at :func:`lifted_params` count c
    evaluated at lam*x^gamma, read from ``lifted``, the :class:`LiftedSequence`
    of (spec, x, policy), made here if omitted.  The outer sum gets a tenth
    of the policy's term budget, each inner sum all of it.
    """
    if parity not in ("all", "even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    x = float(x)
    if x < 0.0:
        raise ValueError("x must be nonnegative (principal powers only)")
    if lifted is None:
        lifted = ReferenceLiftedSequence(spec, x, policy)
    elif lifted.key != (spec, x, policy):
        raise ValueError("lifted sequence was made for another spec, x or policy")
    t = spec.beta * (eta_scale * spec.eta) * (x**spec.beta if x != 0.0 else 0.0)
    max_outer = max(1, policy.max_terms // 10)

    total = comp = 0.0 + 0.0j
    err = last_mag = 0.0
    warnings: list[str] = []
    inner_worst: SeriesEvaluation | None = None
    converged, inner_all_converged = False, True
    small_run = 0
    prod = 1.0 + 0.0j
    m_done = -1
    power = t if parity == "odd" else 1.0 + 0.0j
    step = -t if parity == "all" else t * t

    j = 0
    while j < max_outer:
        if power == 0:  # every remaining outer term vanishes identically
            converged, last_mag = True, 0.0
            break
        m_target = j if parity == "all" else 2 * j + (parity == "odd")
        while m_done < m_target:
            m_done += 1
            factor = spec.alpha + m_done * spec.beta + 1.0
            mag = abs(factor)
            if mag <= _PRODUCT_POLE_TOL:
                raise ProductPole(f"alpha + m*beta + 1 vanishes at m = {m_done}")
            if mag < _PRODUCT_NEAR_POLE:
                warnings.append(f"near pole: |alpha + {m_done}*beta + 1| = {mag:.3g}")
            prod *= factor
        coeff = power / prod
        if alternating and j % 2 == 1:
            coeff = -coeff
        inner = lifted.get(m_target)
        if not inner.converged:
            inner_all_converged = False
            warnings.append(f"inner series not converged at outer index {j}")
        if inner_worst is None or inner.error_estimate > inner_worst.error_estimate:
            inner_worst = inner
        term = coeff * inner.value
        if not cmath.isfinite(term):
            warnings.append(f"non-finite outer term at index {j}; sum truncated")
            inner_all_converged = False
            break
        last_mag = abs(term)
        err += abs(coeff) * inner.error_estimate
        small = j > 0 and last_mag < policy.rel_tol * abs(total) + policy.abs_tol
        small_run = small_run + 1 if small else 0
        total, comp = _kahan_step(total, comp, term)
        j += 1
        if small_run >= policy.consecutive_small:
            converged = True
            break
        power *= step

    return _Block(total, j, err + last_mag, inner_worst, warnings, converged and inner_all_converged)

