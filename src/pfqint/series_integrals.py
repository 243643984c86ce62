"""Series-form antiderivatives of x^a * kernel(eta*x^b) * pFq(lam*x^g).

For each kernel in {exp, cosh, sinh, cos, sin} the antiderivative is a double
series: an outer sum over j whose coefficients carry powers of
``t = beta*eta*x^beta`` divided by ``prod_{m=0..c} (alpha + m*beta + 1)``, times
the inner pFq F_c at ``lam*x^gamma`` whose parameter lists are lifted by
``u_m = (alpha + m*beta + 1)/gamma`` upstairs and ``u_m + 1`` downstairs for
m = 0..c (:func:`lifted_params`); c is j for the exponential kernel and 2j or
2j+1 for the even and odd halves of the others.

By Lemma 1 of the paper, (u)_n/(u+1)_n = u/(u+n): term n of F_c is term n of
the base pFq times ``prod_{m<=c} u_m/(u_m+n)``, so one vector of inner terms,
multiplied by ``u_c/(u_c+n)`` at each count, yields every F_c
(:class:`LiftedSequence`).  J outer and N inner terms cost O(J*N) instead of
the O(J*N*(p+q+J)) of a fresh pFq per outer index.  F_c does not depend
on eta, so all blocks at one (spec, x) share one sequence, which raises per
count the pole and divergence errors pfq raises on the lifted lists;
:func:`series_block` checks the outer product for poles.

Only the powers of ``eta*x^beta`` and ``lam*x^gamma`` depend on x.  The lift
factors, the pole and termination verdict of each count and the outer
products depend on the spec alone, so they live in the spec object's plan
(:class:`_SpecPlan`), built on first use and shared by every x evaluated
with that object; it has no setting, and equal but distinct spec objects
do not share one.  Divergence depends on z and is checked per x.

Branch convention: x must be real and nonnegative, so every power
``x**s = exp(s ln x)`` is principal; the returned antiderivative fixes the
integration constant to 0.
"""

from __future__ import annotations

import cmath
import threading
from dataclasses import dataclass, field, fields
from functools import cached_property

from .errors import (
    DivergentSeries, LiftedLowerPole, LowerParameterPole, NotConverged, PfqintError, ProductPole,
)
from .special_functions import (
    CONVERGENT, DEFAULT_POLICY, PFqParams, SeriesEvaluation, TruncationPolicy, _cancel_matching,
    _is_nonpositive_integer, _kahan_step, _terminating_index, pfq,
)

__all__ = [
    "KERNELS", "IntegrandSpec", "AntiderivativeValue", "LiftedSequence", "lifted_params",
    "series_block", "integrand_value", "antiderivative", "definite_integral",
]

KERNELS = ("exp", "cosh", "sinh", "cos", "sin")

_PRODUCT_POLE_TOL = 1e-12
_PRODUCT_NEAR_POLE = 1e-6

_Raised = tuple[type[PfqintError], str]  # an error to raise: its type and message


@dataclass(frozen=True)
class IntegrandSpec:
    """Integrand x^alpha * kernel(eta x^beta) * pFq(a; b; lam x^gamma)."""

    kernel: str
    alpha: complex = 0.0
    beta: complex = 1.0
    eta: complex = 1.0
    lam: complex = 0.0
    gamma: complex = 1.0
    pfq: PFqParams = field(default_factory=PFqParams)

    def __post_init__(self):
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        for name in ("alpha", "beta", "eta", "lam", "gamma"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")

    @cached_property
    def _plan(self) -> _SpecPlan:
        """The spec's x-independent series data, built on first use."""
        return _SpecPlan(self)

    def __getstate__(self) -> dict:
        # Pickles and copies carry the fields only and build their own plan.
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class AntiderivativeValue:
    value: complex
    outer_terms_used: int
    inner_diagnostics: SeriesEvaluation | None
    error_estimate: float
    warnings: list[str] = field(default_factory=list)
    converged: bool = True


def lifted_params(spec: IntegrandSpec, count: int) -> PFqParams:
    """Parameter lists lifted by the entries for m = 0..count (inclusive).

    ``count`` is the largest appended index: the plain exponential outer sum
    uses count = j, the even/odd split sums use count = 2j or 2j+1.  Raises
    :class:`LiftedLowerPole` if an appended lower entry is a nonpositive
    integer not cancelled by an identical upper entry.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    added_upper = [(spec.alpha + m * spec.beta + 1.0) / spec.gamma for m in range(count + 1)]
    added_lower = [(spec.alpha + spec.gamma + m * spec.beta + 1.0) / spec.gamma
                   for m in range(count + 1)]
    upper = list(spec.pfq.upper) + added_upper
    for b in added_lower:
        if _is_nonpositive_integer(b) and b not in upper:
            raise LiftedLowerPole(f"appended lower parameter {b} is a nonpositive integer")
    return PFqParams(tuple(upper), tuple(spec.pfq.lower) + tuple(added_lower))


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


class _SpecPlan:
    """The part of the lifted double series that depends on the spec alone.

    Per count c: the lift factor ``u[c]``, whether it is exactly a
    nonpositive integer, and ``verdict(c)``: the terminating index (None if
    the series does not end) or the (error type, message) that lifted_params
    or pfq raises for a pole.  Per outer index m: ``product(m)`` and the
    near-pole warnings up to m.  Grown on demand under a lock, so threads
    may share a spec.
    """

    def __init__(self, spec: IntegrandSpec):
        # The parameters, not the spec: the spec holds the plan.
        self._alpha, self._beta, self._gamma = spec.alpha, spec.beta, spec.gamma
        self.base_params = _cancel_matching(spec.pfq.upper, spec.pfq.lower)
        self.u: list[complex] = []
        self.exact: list[bool] = []
        self.verdicts: list[int | None | _Raised] = []
        self.products: list[complex] = []
        self.near_poles: list[tuple[int, str]] = []  # (m, warning), m rising
        # Entries within tolerance of a nonpositive integer: only these can
        # raise, end the series, or cancel against an entry that does.
        self._special_upper = [a for a in spec.pfq.upper if _is_nonpositive_integer(a)]
        self._special_lower = [b for b in spec.pfq.lower if _is_nonpositive_integer(b)]
        self._lifted_poles: list[complex] = []
        self._lock = threading.Lock()

    def verdict(self, c: int) -> int | None | _Raised:
        """The checks of count c, making those of every count before it first."""
        if c >= len(self.verdicts):
            with self._lock:
                while len(self.verdicts) <= c:
                    self.verdicts.append(self._check(len(self.verdicts)))
        return self.verdicts[c]

    def _check(self, c: int) -> int | None | _Raised:
        alpha, beta, gamma = self._alpha, self._beta, self._gamma
        u = (alpha + c * beta + 1.0) / gamma
        v = (alpha + gamma + c * beta + 1.0) / gamma
        self.u.append(u)
        self.exact.append(_terminating_index([u]) is not None)
        if _is_nonpositive_integer(u):
            self._special_upper.append(u)
        if _is_nonpositive_integer(v):
            self._special_lower.append(v)
            self._lifted_poles.append(v)
        for b in self._lifted_poles:
            if b not in self._special_upper:
                return LiftedLowerPole, f"appended lower parameter {b} is a nonpositive integer"
        upper, lower = _cancel_matching(self._special_upper, self._special_lower)
        if lower:
            return LowerParameterPole, f"lower parameter {lower[0]} is a nonpositive integer"
        return _terminating_index(upper)

    def product(self, m: int) -> complex:
        """prod_{k<=m} (alpha + k*beta + 1); raises ProductPole where a factor vanishes."""
        products = self.products
        if m >= len(products):
            with self._lock:
                while len(products) <= m:
                    k = len(products)
                    factor = self._alpha + k * self._beta + 1.0
                    mag = abs(factor)
                    if mag <= _PRODUCT_POLE_TOL:  # growth stops; every call here raises
                        raise ProductPole(f"alpha + m*beta + 1 vanishes at m = {k}")
                    if mag < _PRODUCT_NEAR_POLE:
                        text = f"near pole: |alpha + {k}*beta + 1| = {mag:.3g}"
                        self.near_poles.append((k, text))
                    products.append((products[-1] if k else 1.0 + 0.0j) * factor)
        return products[m]


class LiftedSequence:
    """Inner factors F_c = pfq(lifted_params(spec, c), lam*x^gamma), c = 0, 1, ...

    Made for one (spec, x, policy) and shared by the blocks of one call; what
    does not depend on x it reads from the spec's plan (:class:`_SpecPlan`).
    :meth:`get` returns F_c as pfq does up to rounding (``converged=False``
    where pfq raises NotConverged) and raises a fresh instance of what
    lifted_params or pfq raises.  The vector holds the inner terms, with
    their zero counts (:func:`_scaled`), as far as the latest sum read them.
    The sum of count c multiplies each term it reads by the lifts
    ``u_k/(u_k+n)`` the term lacks (those of c and of any count that raised
    since the term was last read) as it adds it, so no term past the
    stopping index is rescaled; it drops the terms it did not read, and
    builds the terms it needs beyond the vector from the base terms.
    """

    def __init__(self, spec: IntegrandSpec, x: float, policy: TruncationPolicy = DEFAULT_POLICY):
        self.key = (spec, x, policy)
        self.z = spec.lam * (x**spec.gamma) if x != 0.0 else 0.0j
        self._plan = spec._plan
        self._base = [(1.0 + 0.0j, 0)]  # base pFq terms with their zero counts
        self._terms, self._zeros = [], []  # inner terms, lifted through count _lifted
        self._lifted = -1
        self._results: list[SeriesEvaluation | _Raised] = []

    def get(self, count: int) -> SeriesEvaluation:
        """F_count, evaluating every count before it first."""
        while len(self._results) <= count:
            self._results.append(self._advance(len(self._results)))
        result = self._results[count]
        if isinstance(result, tuple):
            error, message = result
            raise error(message)
        return result

    def _advance(self, c: int) -> SeriesEvaluation | _Raised:
        n_stop = self._plan.verdict(c)
        if isinstance(n_stop, tuple):
            return n_stop
        spec = self.key[0]
        excess = spec.pfq.p - spec.pfq.q
        if n_stop is None and self.z != 0 and (excess > 1 or excess == 1 and abs(self.z) >= 1.0):
            params = lifted_params(spec, c)  # for pfq's message
            p, q = map(len, _cancel_matching(params.upper, params.lower))
            return DivergentSeries, (
                f"{p}F{q} has zero radius of convergence; use an asymptotic evaluator"
                if excess > 1 else f"{p}F{q} requires |z| < 1; got |z| = {abs(self.z):.6g}"
            )
        return self._sum(c, n_stop)

    def _grow(self, c: int) -> None:
        """Append the next term at count c: base term times every lift through c."""
        n = len(self._terms)
        if n == len(self._base):  # next base term by pfq's ratio
            k = n - 1
            term, zeros = self._base[k]
            ratio = self.z / n
            for a in self._plan.base_params[0]:
                ratio, zeros = _scaled(ratio, zeros, a + k, 1.0)
            for b in self._plan.base_params[1]:
                ratio, zeros = _scaled(ratio, zeros, 1.0, b + k)
            self._base.append((term * ratio, zeros))
        term, zeros = self._base[n]
        for u in self._plan.u[:c + 1] if n else ():
            term, zeros = _scaled(term, zeros, u, u + n)
        self._terms.append(term)
        self._zeros.append(zeros)

    def _sum(self, c: int, n_stop: int | None) -> SeriesEvaluation:
        """Kahan sum of count c's terms, lifted as they are read, stopped as pfq stops."""
        policy, plan = self.key[2], self._plan
        terms, zeros = self._terms, self._zeros
        first, kept = self._lifted + 1, len(terms)  # terms [0, kept) lack lifts first..c
        u = plan.u[c]
        plain = first == c and not plan.exact[c]
        total = comp = 0.0 + 0.0j
        small_run = n = 0
        while n_stop is None or n <= n_stop:
            if n >= kept:
                self._grow(c)
            elif n and plain:
                terms[n] = terms[n] * u / (u + n)
            elif n:
                for k in range(first, c + 1):
                    v = plan.u[k]
                    if plan.exact[k]:
                        terms[n], zeros[n] = _scaled(terms[n], zeros[n], v, v + n)
                    else:
                        terms[n] = terms[n] * v / (v + n)
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
        else:  # ended after the terminating index, without reading term n
            mag = 0.0
            del terms[n:], zeros[n:]
        del terms[n + 1:], zeros[n + 1:]  # a later count regrows what this one did not lift
        self._lifted = c
        converged = n < policy.max_terms or n_stop is not None and n > n_stop
        return SeriesEvaluation(total, n, mag, CONVERGENT, converged)


@dataclass
class _Block:
    value: complex
    outer_terms: int
    error_estimate: float
    inner_worst: SeriesEvaluation | None
    warnings: list[str]
    converged: bool


def series_block(spec: IntegrandSpec, x: float, policy: TruncationPolicy = DEFAULT_POLICY,
                 parity: str = "all", alternating: bool = False, eta_scale: complex = 1.0,
                 lifted: LiftedSequence | None = None) -> _Block:
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
        lifted = LiftedSequence(spec, x, policy)
    elif lifted.key != (spec, x, policy):
        raise ValueError("lifted sequence was made for another spec, x or policy")
    t = spec.beta * (eta_scale * spec.eta) * (x**spec.beta if x != 0.0 else 0.0)
    max_outer = max(1, policy.max_terms // 10)

    total = comp = 0.0 + 0.0j
    err = last_mag = 0.0
    warnings: list[str] = []
    inner_worst: SeriesEvaluation | None = None
    converged, inner_all_converged = False, True
    small_run = near = 0  # near: the plan's near-pole warnings already reported
    plan = spec._plan
    power = t if parity == "odd" else 1.0 + 0.0j
    step = -t if parity == "all" else t * t

    j = 0
    while j < max_outer:
        if power == 0:  # every remaining outer term vanishes identically
            converged, last_mag = True, 0.0
            break
        m_target = j if parity == "all" else 2 * j + (parity == "odd")
        coeff = power / plan.product(m_target)
        while near < len(plan.near_poles) and plan.near_poles[near][0] <= m_target:
            warnings.append(plan.near_poles[near][1])
            near += 1
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


def integrand_value(
    spec: IntegrandSpec, x: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """Direct value of x^alpha * kernel(eta x^beta) * pFq(lam x^gamma)."""
    x = float(x)
    if x <= 0.0:
        raise ValueError("integrand evaluation requires x > 0")
    kernel = getattr(cmath, spec.kernel)  # every kernel is named as in cmath
    inner = pfq(spec.pfq, spec.lam * x**spec.gamma, policy)
    return (x**spec.alpha) * kernel(spec.eta * x**spec.beta) * inner.value


# The antiderivative is x^(alpha+1) * sum(weight(eta*x^beta) * block) over the
# kernel's (parity, weight) pairs; the trigonometric kernels' blocks alternate.
_KERNEL_BLOCKS = {
    "exp": (("all", cmath.exp),),
    "cosh": (("even", cmath.cosh), ("odd", lambda w: -cmath.sinh(w))),
    "sinh": (("even", cmath.sinh), ("odd", lambda w: -cmath.cosh(w))),
    "cos": (("even", cmath.cos), ("odd", cmath.sin)),
    "sin": (("even", cmath.sin), ("odd", lambda w: -cmath.cos(w))),
}


def antiderivative(
    spec: IntegrandSpec, x: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> AntiderivativeValue:
    """Series antiderivative of the integrand at real x >= 0 (constant = 0).

    At x = 0 the value is 0 provided Re(alpha) > -1 (the x^(alpha+1)
    prefactor vanishes and every series factor is finite).  Raises
    :class:`NotConverged` with the partial result attached if any truncation
    budget is exhausted.
    """
    x = complex(x)
    if x.imag != 0.0 or x.real < 0.0:
        raise ValueError("antiderivative supports real nonnegative x only")
    x = x.real
    if x == 0.0:
        if spec.alpha.real <= -1.0:
            raise ValueError("x = 0 requires Re(alpha) > -1")
        return AntiderivativeValue(0.0 + 0.0j, 0, None, 0.0)

    w, front = spec.eta * x**spec.beta, x ** (spec.alpha + 1.0)
    alternating = spec.kernel in ("cos", "sin")
    lifted = LiftedSequence(spec, x, policy)
    pieces = [
        (weight(w), series_block(spec, x, policy, parity, alternating, lifted=lifted))
        for parity, weight in _KERNEL_BLOCKS[spec.kernel]
    ]
    inner = [b.inner_worst for _, b in pieces if b.inner_worst is not None]
    out = AntiderivativeValue(
        value=front * sum((weight * b.value for weight, b in pieces), 0.0 + 0.0j),
        outer_terms_used=max(b.outer_terms for _, b in pieces),
        inner_diagnostics=max(inner, key=lambda ev: ev.error_estimate, default=None),
        error_estimate=abs(front) * sum(abs(weight) * b.error_estimate for weight, b in pieces),
        warnings=[text for _, b in pieces for text in b.warnings],
        converged=all(b.converged for _, b in pieces),
    )
    if not out.converged:
        raise NotConverged("antiderivative series did not converge", result=out)
    return out


def definite_integral(
    spec: IntegrandSpec, a: float, b: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> AntiderivativeValue:
    """Definite integral over [a, b] as antiderivative(b) - antiderivative(a)."""
    fb = antiderivative(spec, b, policy)
    fa = antiderivative(spec, a, policy)
    inner = [d for d in (fb.inner_diagnostics, fa.inner_diagnostics) if d is not None]
    return AntiderivativeValue(
        value=fb.value - fa.value,
        outer_terms_used=max(fa.outer_terms_used, fb.outer_terms_used),
        inner_diagnostics=max(inner, key=lambda ev: ev.error_estimate, default=None),
        error_estimate=fa.error_estimate + fb.error_estimate,
        warnings=fa.warnings + fb.warnings,
        converged=fa.converged and fb.converged,
    )
