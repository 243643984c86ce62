"""Reference values from mpmath, computed outside the timed phase.

Nothing here imports pfqint: every value is an independent evaluation of the
mathematical definition, so a check against it cannot share a defect with
the code under test.
"""

from __future__ import annotations

import math

import mpmath as mp

# Kernel power series kernel(w) = sum_k c_k w^k / k!, as a function of k.
_KERNEL_COEFF = {
    "exp": lambda k: 1,
    "cosh": lambda k: 0 if k % 2 else 1,
    "sinh": lambda k: 1 if k % 2 else 0,
    "cos": lambda k: 0 if k % 2 else (-1) ** (k // 2),
    "sin": lambda k: (-1) ** ((k - 1) // 2) if k % 2 else 0,
}
_KERNEL_FN = {"exp": mp.exp, "cosh": mp.cosh, "sinh": mp.sinh, "cos": mp.cos, "sin": mp.sin}


def _mp(v):
    """mpf for a real value (mpmath's real paths are faster), mpc otherwise."""
    v = complex(v)
    return mp.mpf(v.real) if v.imag == 0 else mp.mpc(v)


def antiderivative(spec, x) -> complex:
    return complex(_antiderivative(spec, x))


def definite(spec, a, b) -> complex:
    fa, fb = _antiderivative(spec, a), _antiderivative(spec, b)
    with mp.workdps(40):  # both values carry at least 24 digits
        return complex(fb - fa)


def _antiderivative(spec, x):
    """int_0^x t^alpha kernel(eta t^beta) pFq(a; b; lam t^gamma) dt, termwise.

    Integrating the kernel's power series term by term gives
    x^(alpha+1) sum_k c_k w^k / (k! (alpha+beta k+1)) * F_k, with
    w = eta x^beta and F_k = p+1Fq+1(a, u_k; b, u_k+1; lam x^gamma),
    u_k = (alpha+beta k+1)/gamma.  This is not the lifted-parameter form the
    library sums, and it runs with enough guard digits to absorb the
    cancellation of oscillating kernels (peak term ~ e^|w|).
    """
    kernel, alpha, beta, eta, lam, gamma, upper, lower = spec
    w_mag = abs(eta) * x**beta
    coeff = _KERNEL_COEFF[kernel]
    with mp.workdps(24 + int(w_mag / math.log(10))):
        alpha, beta, gamma, xm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma), mp.mpf(x)
        w = _mp(eta) * xm**beta
        z = _mp(lam) * xm**gamma
        up, lo = [_mp(a) for a in upper], [_mp(b) for b in lower]
        eps = mp.mpf(10) ** (-20)
        total = 0
        power = mp.mpf(1)  # w^k / k!
        small = 0
        k = 0
        while True:
            ck = coeff(k)
            if ck:
                s = alpha + beta * k + 1
                u = s / gamma
                term = ck * power / s * mp.hyper(up + [u], lo + [u + 1], z)
                total += term
                if k > w_mag and abs(term) <= eps * abs(total):
                    small += 1
                    if small >= 2:
                        break
                else:
                    small = 0
            k += 1
            power *= w / k
        return xm ** (alpha + 1) * total


def integrand(spec, x) -> complex:
    kernel, alpha, beta, eta, lam, gamma, upper, lower = spec
    with mp.workdps(30):
        xm = mp.mpf(x)
        return complex(
            xm**alpha
            * _KERNEL_FN[kernel](_mp(eta) * xm**beta)
            * mp.hyper([_mp(a) for a in upper], [_mp(b) for b in lower], _mp(lam) * xm**gamma)
        )


def hyper(upper, lower, z) -> complex:
    with mp.workdps(30):
        return complex(mp.hyper([_mp(a) for a in upper], [_mp(b) for b in lower], _mp(z)))


def airy(z) -> complex:
    with mp.workdps(30):
        return complex(mp.airyai(_mp(z)))


def fourier_moment(alpha, theta, k) -> complex:
    """int_R x^alpha e^(-theta^2 x^2) e^(ikx) dx for integer alpha >= 0, theta > 0.

    Differentiating the Gaussian's transform alpha times in k gives
    (i/(2 theta))^alpha sqrt(pi)/theta H_alpha(k/(2 theta)) e^(-k^2/(4 theta^2))
    with the Hermite polynomial H; no confluent series is involved.
    """
    with mp.workdps(30):
        th, kk = mp.mpf(theta), mp.mpf(k)
        u = kk / (2 * th)
        return complex((1j / (2 * th)) ** alpha * mp.sqrt(mp.pi) / th
                       * mp.hermite(alpha, u) * mp.exp(-u * u))


def laplace_moment(alpha, theta, u) -> complex:
    """int_0^inf x^alpha e^(-theta^2 x^2) e^(-ux) dx for alpha > -1, theta > 0.

    Parabolic-cylinder form (DLMF 12.5.1 with x = t/(sqrt(2) theta)):
    Gamma(alpha+1) (sqrt(2) theta)^-(alpha+1) e^(s^2/4) D_-(alpha+1)(s),
    s = u/(sqrt(2) theta).
    """
    with mp.workdps(30):
        nu = mp.mpf(alpha) + 1
        scale = mp.sqrt(2) * mp.mpf(theta)
        s = mp.mpc(u) / scale
        return complex(mp.gamma(nu) * scale ** (-nu) * mp.exp(s * s / 4) * mp.pcfd(-nu, s))


def laplace_erf(u) -> complex:
    """int_0^inf e^(-ux) int_0^x e^(-v^2) dv dx = sqrt(pi)/(2u) e^(u^2/4) erfc(u/2)."""
    with mp.workdps(30):
        uu = mp.mpc(u)
        return complex(mp.sqrt(mp.pi) / (2 * uu) * mp.exp(uu * uu / 4) * mp.erfc(uu / 2))


def phi(y, k, r, reynolds, omega) -> complex:
    """Green's-function mode phi(y) of the stability operator by mpmath quadrature."""
    with mp.workdps(20):
        rk = mp.mpf(r) * mp.mpf(k)
        c = (1j * mp.mpf(reynolds) * mp.mpf(k)) ** (mp.mpf(1) / 3)
        lam = 1j * mp.mpf(reynolds) * mp.mpc(omega) - (mp.mpf(r) * mp.mpf(k)) ** 2
        ai = lambda xi: mp.airyai(c * (xi - lam))
        ym = mp.mpf(y)
        inner = mp.quad(lambda xi: mp.cosh(rk * xi) * ai(xi), [0, ym]) if y > 0 else 0
        tail = mp.quad(lambda xi: mp.exp(-rk * xi) * ai(xi), [ym, mp.inf])
        return complex(mp.exp(-rk * ym) / rk * inner + mp.cosh(rk * ym) / rk * tail)


def relerr(value, ref, floor: float = 1e-300) -> float:
    value, ref = complex(value), complex(ref)
    return abs(value - ref) / max(abs(value), abs(ref), floor)
