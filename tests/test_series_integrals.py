import cmath
import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
import threading

import pytest

from conftest import (
    SEED, ReferenceLiftedSequence, random_integrand_spec, reference_block, reference_series_block,
    relerr,
)
from pfqint import (
    DEFAULT_POLICY,
    DivergentSeries,
    IntegrandSpec,
    LiftedLowerPole,
    LowerParameterPole,
    NotConverged,
    PFqParams,
    PfqintError,
    ProductPole,
    TruncationPolicy,
    antiderivative,
    definite_integral,
    integrand_value,
    lifted_params,
    pfq,
    quad_finite,
)
from pfqint import series_integrals
from pfqint.oracle import fd_derivative
from pfqint.series_integrals import KERNELS, AntiderivativeValue, LiftedSequence, series_block


def _spec(**kw):
    base = dict(kernel="exp", alpha=0.0, beta=1.0, eta=1.0, lam=0.0, gamma=1.0,
                pfq=PFqParams())
    base.update(kw)
    return IntegrandSpec(**base)


class TestLiftedParams:
    def test_basic_append(self):
        spec = _spec(gamma=2.0)
        lp = lifted_params(spec, 0)
        assert lp.upper == (0.5 + 0.0j,)
        assert lp.lower == (1.5 + 0.0j,)

    def test_append_keeps_base_lower(self):
        spec = _spec(beta=2.0, gamma=2.0, pfq=PFqParams((), (0.5,)))
        lp = lifted_params(spec, 0)
        assert lp.upper == (0.5 + 0.0j,)
        assert lp.lower == (0.5 + 0.0j, 1.5 + 0.0j)

    def test_each_count_adds_one_pair(self):
        spec = _spec(alpha=0.3, beta=0.7, gamma=1.3, pfq=PFqParams((1.1,), (2.2,)))
        for count in range(5):
            lp = lifted_params(spec, count)
            assert lp.p == 1 + count + 1
            assert lp.q == 1 + count + 1

    def test_lower_pole_detection(self):
        # alpha + gamma + 1 = 0 with gamma = 1 appends lower parameter 0.
        spec = _spec(alpha=-2.0, gamma=1.0)
        with pytest.raises(LiftedLowerPole):
            lifted_params(spec, 0)


class TestAntiderivative:
    def test_cos_kernel_collapses_to_sin(self):
        spec = _spec(kernel="cos")
        v = antiderivative(spec, math.pi / 2.0)
        assert relerr(v.value, 1.0) < 1e-12

    def test_exp_kernel_definite_is_e_minus_one(self):
        spec = _spec()
        oracle = quad_finite(math.exp, 0.0, 1.0, 1e-13)
        v = definite_integral(spec, 0.0, 1.0)
        assert relerr(v.value, oracle.value) < 1e-12

    def test_hidden_cosine_integrand(self):
        # eta = 0 and a 0F1 factor make the integrand cos(x).
        spec = _spec(eta=0.0, gamma=2.0, lam=-0.25, pfq=PFqParams((), (0.5,)))
        v = definite_integral(spec, 0.0, 1.0)
        assert relerr(v.value, math.sin(1.0)) < 1e-12
        oracle = quad_finite(math.cos, 0.0, 1.0, 1e-13)
        assert relerr(v.value, oracle.value) < 1e-12

    def test_x_cosh_definite(self):
        spec = _spec(kernel="cosh", alpha=1.0)
        oracle = quad_finite(lambda x: x * math.cosh(x), 0.0, 1.0, 1e-13)
        v = definite_integral(spec, 0.0, 1.0)
        assert relerr(v.value, oracle.value) < 1e-12

    def test_degenerate_interval(self):
        spec = _spec(kernel="sin", alpha=0.5)
        assert definite_integral(spec, 0.8, 0.8).value == 0.0

    def test_power_only_shape(self):
        # p = q = 0, gamma = 1, lam = 0: plain x^alpha e^(eta x^beta) against
        # the quadrature oracle.
        spec = _spec(alpha=0.7, beta=1.5, eta=-0.8)
        oracle = quad_finite(
            lambda x: x**0.7 * math.exp(-0.8 * x**1.5), 0.5, 1.5, 1e-13
        )
        v = definite_integral(spec, 0.5, 1.5)
        assert relerr(v.value, oracle.value) < 1e-11

    def test_lambda_zero_ignores_parameter_lists(self):
        a = _spec(kernel="sin", alpha=0.4, lam=0.0, pfq=PFqParams((1.3,), (0.7,)))
        b = _spec(kernel="sin", alpha=0.4, lam=0.0, pfq=PFqParams((), (2.9,)))
        x = 1.3
        assert antiderivative(a, x).value == antiderivative(b, x).value

    def test_cosh_plus_sinh_equals_exp(self):
        rng = random.Random(SEED + 2)
        for _ in range(5):
            spec = random_integrand_spec(rng, kernel="exp")
            cosh_spec = IntegrandSpec("cosh", spec.alpha, spec.beta, spec.eta,
                                      spec.lam, spec.gamma, spec.pfq)
            sinh_spec = IntegrandSpec("sinh", spec.alpha, spec.beta, spec.eta,
                                      spec.lam, spec.gamma, spec.pfq)
            x = 1.4
            total = antiderivative(cosh_spec, x).value + antiderivative(sinh_spec, x).value
            assert relerr(total, antiderivative(spec, x).value) < 1e-10

    def test_fundamental_theorem_small_corpus(self):
        rng = random.Random(SEED + 3)
        checked = 0
        while checked < 6:
            spec = random_integrand_spec(rng)
            x = rng.uniform(0.4, 1.8)
            direct = integrand_value(spec, x)
            if abs(direct) < 5e-2:
                continue
            deriv = fd_derivative(
                lambda xx: antiderivative(spec, xx).value, x,
                tol=1e-6,
            )
            assert relerr(deriv, direct) < 1e-6
            checked += 1

    def test_against_high_precision_quadrature(self):
        # Entirely independent of the in-package oracle: 30-digit quadrature
        # of the directly evaluated integrand, complex parameters included.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = random.Random(SEED + 99)
        kernels = {"exp": mp.exp, "cosh": mp.cosh, "sinh": mp.sinh,
                   "cos": mp.cos, "sin": mp.sin}
        for i in range(4):
            spec = random_integrand_spec(rng)
            if i % 2 == 1:
                spec = IntegrandSpec(spec.kernel, spec.alpha, spec.beta,
                                     spec.eta + 0.4j, spec.lam * (1 + 0.5j),
                                     spec.gamma, spec.pfq)
            kern = kernels[spec.kernel]
            up = [mp.mpc(a.real, a.imag) for a in spec.pfq.upper]
            lo = [mp.mpc(b.real, b.imag) for b in spec.pfq.lower]
            al, be, et, la, ga = (
                mp.mpc(v.real, v.imag)
                for v in (spec.alpha, spec.beta, spec.eta, spec.lam, spec.gamma)
            )
            ref = mp.quad(
                lambda x: x**al * kern(et * x**be) * mp.hyper(up, lo, la * x**ga),
                [0.25, 1.75],
            )
            refc = complex(float(ref.real), float(ref.imag))
            mine = definite_integral(spec, 0.25, 1.75)
            assert relerr(mine.value, refc) < 1e-12

    def test_at_zero(self):
        spec = _spec(alpha=0.5)
        assert antiderivative(spec, 0.0).value == 0.0
        with pytest.raises(ValueError):
            antiderivative(_spec(alpha=-1.5), 0.0)

    def test_rejects_negative_or_complex_x(self):
        spec = _spec()
        with pytest.raises(ValueError):
            antiderivative(spec, -0.5)
        with pytest.raises(ValueError):
            antiderivative(spec, 1.0 + 1.0j)

    def test_product_pole(self):
        # alpha + beta + 1 = 0 at m = 1
        spec = _spec(alpha=-2.0, beta=1.0, gamma=2.0)
        with pytest.raises(ProductPole):
            antiderivative(spec, 0.5)

    def test_near_pole_warning(self):
        spec = _spec(alpha=-2.0 + 1e-8, beta=1.0, gamma=2.0)
        v = antiderivative(spec, 0.5)
        assert any("near pole" in w for w in v.warnings)

    def test_not_converged_propagates_with_payload(self):
        spec = _spec(eta=3.0, beta=2.0)
        policy = TruncationPolicy(max_terms=20)
        with pytest.raises(NotConverged) as info:
            antiderivative(spec, 2.0, policy)
        assert info.value.result is not None

    def test_error_estimate_covers_last_term(self):
        spec = _spec(kernel="cos", alpha=0.3, eta=0.9, lam=0.1,
                     pfq=PFqParams((), (1.2,)))
        v = antiderivative(spec, 1.2)
        oracle = quad_finite(
            lambda x: integrand_value(spec, x), 0.1, 1.2, 1e-13
        )
        w = antiderivative(spec, 0.1)
        assert abs((v.value - w.value) - oracle.value) <= max(
            1e-13, v.error_estimate + w.error_estimate + oracle.error_estimate
        )


_INNER = ((0, 0), (0, 1), (1, 1), (1, 2), (2, 1))
_PARITY_COUNTS = {"all": (1, 0), "even": (2, 0), "odd": (2, 1)}


def _lifted_corpus(rng, per_cell=4):
    """(spec, x) for every kernel and inner pFq: |eta x^beta| log-spread over
    0.1..15, |lam x^gamma| up to 0.8 for 2F1 and up to 3 otherwise, and half
    the cases with complex eta and lam."""
    for kernel, (p, q) in itertools.product(KERNELS, _INNER):
        for _ in range(per_cell):
            x = rng.uniform(0.3, 1.9)
            beta, gamma = rng.choice((0.5, 1.0, 1.5, 2.0)), rng.choice((1.0, 2.0))
            complex_case = rng.random() < 0.5

            def direction():
                if complex_case:
                    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                return rng.choice((1.0, -1.0))

            w = 0.1 * 150.0 ** rng.random()
            if (p, q) == (2, 1):
                z = rng.uniform(0.05, 0.8)
            else:
                z = math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
            params = PFqParams(tuple(rng.uniform(0.3, 2.5) for _ in range(p)),
                               tuple(rng.uniform(0.6, 3.0) for _ in range(q)))
            yield IntegrandSpec(kernel, rng.uniform(-0.5, 1.5), beta,
                                w / x**beta * direction(), z / x**gamma * direction(),
                                gamma, params), x


def _assert_matches_reference(spec, x, parity, alternating=False, eta_scale=1.0):
    lifted = LiftedSequence(spec, x)
    block = series_block(spec, x, parity=parity, alternating=alternating,
                         eta_scale=eta_scale, lifted=lifted)
    value, outer_terms, inner, size = reference_block(spec, x, parity, alternating,
                                                      eta_scale)
    assert block.outer_terms == outer_terms
    stride, offset = _PARITY_COUNTS[parity]
    for j, ref in enumerate(inner):
        mine = lifted.get(stride * j + offset)
        assert (mine.terms_used, mine.converged) == (ref.terms_used, ref.converged)
    # The recurrence changes only the rounding, which no error estimate covers.
    assert abs(block.value - value) <= 1e-13 * size
    return block


class TestLiftedRecurrence:
    def test_blocks_match_per_term_pfq(self):
        rng = random.Random(SEED + 20)
        scales = (1.0, -1.0, 1j, -1j)
        for k, (spec, x) in enumerate(_lifted_corpus(rng)):
            for i, parity in enumerate(("all", "even", "odd")):
                _assert_matches_reference(spec, x, parity, spec.kernel in ("cos", "sin"),
                                          scales[(k + i) % 4])

    def test_lifted_lower_pole_depends_on_parity(self):
        # The even block asks for count 0, where the appended lower entry -2
        # has no equal upper entry yet; the odd block's first count 1 also
        # appends u_1 = -2 and gets to the product pole at m = 3 instead.
        spec = _spec(kernel="cosh", alpha=-4.0, lam=0.3, pfq=PFqParams((-1.0,), (1.5,)))
        for parity, error in (("even", LiftedLowerPole), ("odd", ProductPole)):
            with pytest.raises(error) as ref:
                reference_block(spec, 0.8, parity)
            with pytest.raises(error) as mine:
                series_block(spec, 0.8, parity=parity)
            assert str(mine.value) == str(ref.value)
        with pytest.raises(LiftedLowerPole):
            antiderivative(spec, 0.8)

    def test_integer_lift_parameters(self):
        # u_m = m - 3: count 1 is finite only because its lower entries -2
        # and -1 cancel against u_1 and the base upper -1, and the series
        # ends at n = 3 through u_0 = -3.
        spec = _spec(alpha=-4.0, lam=0.3, pfq=PFqParams((-1.0,), (1.5,)))
        lifted = LiftedSequence(spec, 0.8)
        mine, ref = lifted.get(1), pfq(lifted_params(spec, 1), lifted.z)
        assert (mine.terms_used, mine.error_estimate) == (ref.terms_used, 0.0) == (4, 0.0)
        assert relerr(mine.value, ref.value) < 1e-14
        # Without the base upper -1 the same count raises, as lifted_params does.
        bare = LiftedSequence(_spec(alpha=-4.0, lam=0.3, pfq=PFqParams((), (1.5,))), 0.8)
        with pytest.raises(LiftedLowerPole):
            bare.get(1)
        # u_0 = -1: the appended lower entry 0 raises before any term.
        spec = _spec(alpha=-2.0, lam=0.3)
        with pytest.raises(LiftedLowerPole):
            reference_block(spec, 0.8)
        with pytest.raises(LiftedLowerPole):
            antiderivative(spec, 0.8)

    def test_terminating_base_upper(self):
        # 2F1(-3, 1.5; 2.5; z) is a cubic, summed outside |z| < 1.
        spec = _spec(kernel="sin", alpha=0.5, eta=2.0, lam=1.5 / 0.8,
                     pfq=PFqParams((-3.0, 1.5), (2.5,)))
        for parity in ("even", "odd"):
            _assert_matches_reference(spec, 0.8, parity, alternating=True)
        assert LiftedSequence(spec, 0.8).get(5).terms_used == 4

    @pytest.mark.parametrize("params, lam, error", [
        (PFqParams((0.5, 1.5), (2.5,)), 1.2, DivergentSeries),  # 2F1 at |z| >= 1
        (PFqParams((0.5,), (-2.0,)), 0.3, LowerParameterPole),
    ])
    def test_base_errors(self, params, lam, error):
        spec = _spec(kernel="sin", alpha=0.5, eta=2.0, lam=lam / 0.8, pfq=params)
        with pytest.raises(error) as ref:
            reference_block(spec, 0.8, "even", True)
        with pytest.raises(error) as mine:
            antiderivative(spec, 0.8)
        assert str(mine.value) == str(ref.value)

    def test_lambda_zero(self):
        spec = _spec(kernel="cos", alpha=0.4, eta=3.0, lam=0.0, pfq=PFqParams((1.3,), (0.7,)))
        block = _assert_matches_reference(spec, 1.3, "odd", alternating=True)
        assert block.inner_worst.value == 1.0 and block.inner_worst.terms_used == 3

    def test_x_zero(self):
        spec = _spec(alpha=0.5, lam=0.7, pfq=PFqParams((1.3,), (0.7,)))
        for parity, value in (("all", 1.0 / 1.5), ("even", 1.0 / 1.5), ("odd", 0.0)):
            block = _assert_matches_reference(spec, 0.0, parity)
            assert block.value == value
        assert antiderivative(spec, 0.0).value == 0.0

    def test_shared_sequence_gives_the_blocks_it_replaces(self):
        spec = random_integrand_spec(random.Random(SEED + 21), kernel="cos")
        lifted = LiftedSequence(spec, 1.4)
        for parity in ("odd", "even", "all"):
            shared = series_block(spec, 1.4, parity=parity, lifted=lifted)
            assert shared == series_block(spec, 1.4, parity=parity)
        with pytest.raises(ValueError):
            series_block(spec, 1.5, lifted=lifted)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except PfqintError as exc:
        return type(exc), str(exc)


def _count_outcome(lifted, count):
    ev = _outcome(lifted.get, count)
    if isinstance(ev, tuple):
        return ev
    return ev.value, ev.terms_used, ev.error_estimate, ev.converged


# Specs whose verdicts the plan records, each with its x list: the inner 2F1
# at |lam x^gamma| below and above 1, near and exact product poles, a lifted
# lower pole, integer lift parameters, a terminating base series, and two
# more described where they appear.
_PINNED = (
    (_spec(kernel="cosh", alpha=0.3, lam=1.0, pfq=PFqParams((0.5, 1.5), (2.5,))), (0.8, 1.2, 0.0)),
    (_spec(kernel="sin", alpha=-2.0 + 1e-8, gamma=2.0, lam=0.4), (0.5, 1.1)),
    (_spec(alpha=-2.0, gamma=2.0, eta=0.7), (0.5, 1.5)),
    (_spec(kernel="cosh", alpha=-4.0, lam=0.3, pfq=PFqParams((-1.0,), (1.5,))), (0.8, 1.6)),
    (_spec(alpha=-4.0, lam=0.3, pfq=PFqParams((-1.0,), (1.5,))), (0.4, 0.8)),
    (_spec(kernel="sin", alpha=0.5, eta=2.0, lam=1.5 / 0.8, pfq=PFqParams((-3.0, 1.5), (2.5,))),
     (0.8, 0.3)),
    # u_c = c - 2 + 1e-13, within tolerance of an integer but not one: count 1
    # raises (its lower entry u_1 + 1 has no equal upper entry until u_2), so
    # count 2 lifts the terms count 0 read by u_1 and u_2.
    (_spec(alpha=-3.0 + 1e-13, lam=0.3, pfq=PFqParams(((-3.0 + 1e-13) + 1.0 + 1.0,))), (0.5, 0.9)),
    # u_c = 1 - c/2: counts 2 and 3 end at n = 0 (u_2 = 0), count 4 at n = 1
    # (v_4 = 0 cancels u_2, u_4 = -1), after counts 0 and 1 read further.
    (_spec(beta=-0.5, lam=0.3), (0.5, 1.2)),
)


class TestSpecPlan:
    def _assert_matches_per_x(self, spec, xs, scales):
        """Blocks and counts read through one plan, x after x, against the
        per-x recurrence on the same call sequence: exactly equal."""
        plan_spec = dataclasses.replace(spec)  # a new object starts a new plan
        for k, x in enumerate(xs):
            mine, ref = LiftedSequence(plan_spec, x), ReferenceLiftedSequence(spec, x)
            for i, parity in enumerate(("all", "even", "odd")):
                args = (x, DEFAULT_POLICY, parity, spec.kernel in ("cos", "sin"),
                        scales[(k + i) % len(scales)])
                assert (_outcome(series_block, plan_spec, *args, lifted=mine)
                        == _outcome(reference_series_block, spec, *args, lifted=ref))
            for count in range(len(ref._results) + 4):
                assert _count_outcome(mine, count) == _count_outcome(ref, count)

    def test_matches_per_x_recurrence_in_either_x_order(self):
        corpus = _lifted_corpus(random.Random(SEED + 20))  # as in TestLiftedRecurrence
        cases = [(spec, (x, 0.5 * x, 1.3 * x)) for spec, x in corpus] + list(_PINNED)
        for spec, xs in cases:
            rising = sorted(xs)
            for order in (rising, rising[::-1]):
                self._assert_matches_per_x(spec, order, (1.0, -1.0, 1j, -1j))

    def test_pinned_cases_raise_what_they_should(self):
        # The 2F1 case diverges at one x of its list and not at another.
        spec, _ = _PINNED[0]
        assert isinstance(_outcome(antiderivative, spec, 0.8), AntiderivativeValue)
        assert _outcome(antiderivative, spec, 1.2)[0] is DivergentSeries
        assert _outcome(antiderivative, _PINNED[2][0], 0.5)[0] is ProductPole
        assert _outcome(antiderivative, _PINNED[3][0], 0.8)[0] is LiftedLowerPole
        assert any("near pole" in w for w in antiderivative(_PINNED[1][0], 0.5).warnings)
        lifted = LiftedSequence(_PINNED[6][0], 0.5)
        assert _outcome(lifted.get, 1)[0] is LiftedLowerPole
        assert lifted.get(2).terms_used > 3
        lifted = LiftedSequence(_PINNED[7][0], 0.5)
        used = [lifted.get(c).terms_used for c in range(5)]
        assert used[2:] == [1, 1, 2] and min(used[:2]) > 3

    def test_one_plan_per_spec_object(self, monkeypatch):
        built = []
        init = series_integrals._SpecPlan.__init__

        def counting_init(plan, spec):
            built.append(spec)
            init(plan, spec)

        monkeypatch.setattr(series_integrals._SpecPlan, "__init__", counting_init)
        spec = _spec(kernel="cos", alpha=0.3, eta=0.9, lam=0.1, pfq=PFqParams((), (1.2,)))
        for x in (0.4, 1.2, 0.7):
            antiderivative(spec, x)
        definite_integral(spec, 0.2, 0.9)
        assert len(built) == 1 and built[0] is spec
        twin = dataclasses.replace(spec)
        assert twin == spec
        antiderivative(twin, 0.4)
        assert len(built) == 2 and built[1] is twin
        assert twin._plan is not spec._plan

    def test_copies_build_their_own_plan(self):
        spec = _spec(kernel="sin", alpha=0.5, eta=2.0, lam=0.3, pfq=PFqParams((1.5,), (2.5,)))
        value = antiderivative(spec, 0.8).value
        for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
            assert twin == spec and "_plan" not in vars(twin)
            assert antiderivative(twin, 0.8).value == value
            assert twin._plan is not spec._plan

    @pytest.mark.parametrize("spec, error", [
        (_spec(alpha=-2.0, gamma=2.0), ProductPole),
        (_spec(alpha=-2.0, lam=0.3), LiftedLowerPole),
    ])
    def test_each_call_raises_a_fresh_error(self, spec, error):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                antiderivative(spec, 0.5)
            raised.append(info.value)
        assert raised[0] is not raised[1]
        assert str(raised[0]) == str(raised[1])

    def test_threads_sharing_a_spec_match_one_thread(self):
        # Plans grow while four threads read them; each round starts new plans.
        rng = random.Random(SEED + 23)
        specs = [random_integrand_spec(rng) for _ in range(4)]
        xs = [0.3 + 0.05 * k for k in range(30)]
        want = [[antiderivative(s, x).value for x in xs] for s in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = [dataclasses.replace(s) for s in specs]
                got, start = {}, threading.Barrier(4)

                def worker(w):
                    start.wait(timeout=60)
                    order = xs[w::4] + xs if w % 2 else xs[::-1]
                    got[w] = [{x: antiderivative(s, x).value for x in order} for s in shared]

                threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 4
                for values in got.values():
                    assert [[v[x] for x in xs] for v in values] == want
        finally:
            sys.setswitchinterval(interval)
