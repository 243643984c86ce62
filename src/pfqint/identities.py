"""Numeric residual checks for the product identity and the six series identities.

Each check assembles both sides from the shared series blocks and reports the
relative residual |lhs - rhs| / max(|lhs|, |rhs|, 1); the floor of 1 keeps the
ratio meaningful when both sides vanish together.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import PochhammerPole
from .series_integrals import IntegrandSpec, LiftedSequence, series_block
from .special_functions import DEFAULT_POLICY, TruncationPolicy, pochhammer

__all__ = ["IDENTITY_IDS", "IdentityCase", "lemma1_residual", "theorem_residual"]

IDENTITY_IDS = ("lemma1", "t1", "t2", "t3", "t4", "t5", "t6")

_POCHHAMMER_ZERO_TOL = 1e-300


@dataclass(frozen=True)
class IdentityCase:
    identity_id: str
    spec: IntegrandSpec | None = None
    x: float = 1.0
    n: int = 0
    j: int = 0

    def __post_init__(self):
        if self.identity_id not in IDENTITY_IDS:
            raise ValueError(f"identity_id must be one of {IDENTITY_IDS}")
        if self.identity_id == "lemma1" and (self.n < 0 or self.j < 0):
            raise ValueError("lemma1 requires n >= 0 and j >= 0")


def lemma1_residual(
    alpha: complex, beta: complex, gamma: complex, n: int, j: int
) -> float:
    """Residual of the shifted-product identity

        prod_{m=0..j} (n*gamma + alpha + m*beta + 1)
          = prod_{m=0..j} (alpha + m*beta + 1)
            * prod_m ((alpha+gamma+m*beta+1)/gamma)_n
            / prod_m ((alpha+m*beta+1)/gamma)_n

    evaluated two-sided with independent products, relative with floor 1.
    """
    alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    if n < 0 or j < 0:
        raise ValueError("n and j must be nonnegative integers")
    lhs = 1.0 + 0.0j
    for m in range(j + 1):
        lhs *= n * gamma + alpha + m * beta + 1.0
    rhs = 1.0 + 0.0j
    for m in range(j + 1):
        rhs *= alpha + m * beta + 1.0
        rhs *= pochhammer((alpha + gamma + m * beta + 1.0) / gamma, n)
        denom = pochhammer((alpha + m * beta + 1.0) / gamma, n)
        if abs(denom) < _POCHHAMMER_ZERO_TOL:
            raise PochhammerPole(
                f"((alpha + {m}*beta + 1)/gamma)_{n} vanishes"
            )
        rhs /= denom
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def theorem_residual(case: IdentityCase, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Relative residual of one of the six series identities at case.x.

    With s = 1 for t1-t3 and s = i for t4-t6, w = s*eta*x^beta, E and O the
    even and odd split sums (alternating when s = i, O scaled by s) and P+, P-
    the exponential sums at eta_scale = +s, -s, all reading one lifted
    sequence: t1/t4 is cosh(w) E - sinh(w) O = (e^w P+ + e^-w P-)/2, t2/t5 is
    sinh(w) E - cosh(w) O = (e^w P+ - e^-w P-)/2 (t5 times i), and t3/t6
    equates e^w P+ with the sum of those two left-hand sides.
    """
    if case.identity_id == "lemma1":
        s = case.spec
        return lemma1_residual(s.alpha, s.beta, s.gamma, case.n, case.j)
    spec, x, tid = case.spec, float(case.x), case.identity_id
    s = 1.0 if tid in ("t1", "t2", "t3") else 1j
    lifted = LiftedSequence(spec, x, policy)

    def blk(parity, alternating=False, eta_scale=1.0):
        return series_block(spec, x, policy, parity, alternating, eta_scale, lifted).value

    even, odd = blk("even", s == 1j), s * blk("odd", s == 1j)
    p_plus, p_minus = blk("all", eta_scale=s), blk("all", eta_scale=-s)
    w = s * spec.eta * x**spec.beta
    cosh_side = cmath.cosh(w) * even - cmath.sinh(w) * odd
    sinh_side = cmath.sinh(w) * even - cmath.cosh(w) * odd
    plus, minus = cmath.exp(w) * p_plus, cmath.exp(-w) * p_minus
    lhs, rhs = (
        (plus, cosh_side + sinh_side),  # t3, t6
        (cosh_side, 0.5 * (plus + minus)),  # t1, t4
        (sinh_side, 0.5 * (plus - minus)),  # t2, t5
    )[int(tid[1]) % 3]
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
