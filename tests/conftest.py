"""Shared helpers: relative error with a floor, seeded case generators, and the
per-term reference for the lifted double series."""

from __future__ import annotations

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
