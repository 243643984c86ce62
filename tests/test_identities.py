import cmath
import random

import pytest

import pfqint.identities as identities
from conftest import SEED, lemma_cases, random_identity_spec, reference_block
from pfqint import (
    IdentityCase,
    IntegrandSpec,
    LiftedLowerPole,
    PFqParams,
    PochhammerPole,
    lemma1_residual,
    theorem_residual,
)
from pfqint.series_integrals import LiftedSequence, series_block
from pfqint.special_functions import DEFAULT_POLICY


class TestLemma1:
    def test_integer_case_exact(self):
        # LHS = 3*4*5 = 60; both sides integer products
        assert lemma1_residual(0.0, 1.0, 1.0, 2, 2) < 1e-15

    def test_n_zero_always_exact(self):
        rng = random.Random(SEED)
        for _ in range(20):
            alpha = rng.uniform(-2, 2)
            beta = rng.uniform(-2, 2)
            gamma = rng.choice([1.0, -2.0, 3.0])
            assert lemma1_residual(alpha, beta, gamma, 0, rng.randint(0, 6)) == 0.0

    def test_single_factor_case(self):
        # j = 0: LHS = n*gamma + alpha + 1 = 11
        assert lemma1_residual(1.0, 5.0, 3.0, 3, 0) < 1e-12

    def test_randomized_grid(self):
        worst = max(
            lemma1_residual(a, b, g, n, j) for a, b, g, n, j in lemma_cases(100)
        )
        assert worst < 1e-12

    def test_complex_parameters(self):
        assert lemma1_residual(0.3 + 0.2j, 1.1, 2.0, 4, 3) < 1e-13

    def test_pochhammer_pole(self):
        # (alpha + 1)/gamma = -1 makes a denominator Pochhammer vanish at n >= 2
        with pytest.raises(PochhammerPole):
            lemma1_residual(0.0, 1.0, -1.0, 2, 0)


def _case(tid, x=0.5, **kw):
    base = dict(kernel="exp", alpha=0.0, beta=1.0, eta=1.0, lam=0.25, gamma=1.0,
                pfq=PFqParams())
    base.update(kw)
    return IdentityCase(identity_id=tid, spec=IntegrandSpec(**base), x=x)


class TestTheoremResiduals:
    def test_t1_small_argument_limit(self):
        # Both sides approach 1/(alpha + 1) as x -> 0.
        assert theorem_residual(_case("t1", x=1e-8)) < 1e-10

    def test_t3_reference_case(self):
        assert theorem_residual(_case("t3")) < 1e-9

    def test_t4_reference_case(self):
        assert theorem_residual(_case("t4")) < 1e-9

    @pytest.mark.parametrize("tid", ["t1", "t2", "t3", "t4", "t5", "t6"])
    def test_small_argument_corpus(self, tid):
        rng = random.Random(SEED + 10)
        for _ in range(8):
            x = rng.uniform(0.3, 1.2)
            spec = random_identity_spec(rng, x)
            case = IdentityCase(identity_id=tid, spec=spec, x=x)
            assert theorem_residual(case) < 1e-8

    def test_trig_sides_match_in_imaginary_part(self):
        # For real parameters the assembled sides agree componentwise.
        import cmath

        rng = random.Random(SEED + 11)
        for tid in ("t4", "t5"):
            x = 0.6
            spec = random_identity_spec(rng, x)
            w = spec.eta * x**spec.beta

            def blk(parity, alternating=False, eta_scale=1.0):
                return series_block(spec, x, DEFAULT_POLICY, parity,
                                    alternating, eta_scale).value

            even = blk("even", alternating=True)
            odd = blk("odd", alternating=True)
            p_plus = blk("all", eta_scale=1.0j)
            p_minus = blk("all", eta_scale=-1.0j)
            if tid == "t4":
                lhs = cmath.cos(w) * even + cmath.sin(w) * odd
                rhs = 0.5 * (cmath.exp(1j * w) * p_plus + cmath.exp(-1j * w) * p_minus)
            else:
                lhs = cmath.sin(w) * even - cmath.cos(w) * odd
                rhs = (cmath.exp(1j * w) * p_plus - cmath.exp(-1j * w) * p_minus) / 2.0j
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs.imag - rhs.imag) <= 1e-8 * scale

    def test_lemma_case_through_identity_interface(self):
        case = IdentityCase(
            identity_id="lemma1",
            spec=IntegrandSpec("exp", 0.0, 1.0, 1.0, 0.0, 1.0, PFqParams()),
            n=2, j=2,
        )
        assert theorem_residual(case) < 1e-15


def _reference_residual(case):
    """The residual as assembled branch by branch, from per-term blocks."""
    spec, x, tid = case.spec, case.x, case.identity_id
    w = spec.eta * x**spec.beta
    trig = tid in ("t4", "t5", "t6")

    def blk(parity, alternating=False, eta_scale=1.0):
        return reference_block(spec, x, parity, alternating, eta_scale)[0]

    even, odd = blk("even", trig), blk("odd", trig)
    s = 1j if trig else 1.0
    p_plus, p_minus = blk("all", eta_scale=s), blk("all", eta_scale=-s)
    e_plus, e_minus = cmath.exp(s * w), cmath.exp(-s * w)
    lhs, rhs = {
        "t1": (cmath.cosh(w) * even - cmath.sinh(w) * odd,
               0.5 * (e_plus * p_plus + e_minus * p_minus)),
        "t2": (cmath.sinh(w) * even - cmath.cosh(w) * odd,
               0.5 * (e_plus * p_plus - e_minus * p_minus)),
        "t3": (e_plus * p_plus, cmath.cosh(w) * even - cmath.sinh(w) * odd
               + cmath.sinh(w) * even - cmath.cosh(w) * odd),
        "t4": (cmath.cos(w) * even + cmath.sin(w) * odd,
               0.5 * (e_plus * p_plus + e_minus * p_minus)),
        "t5": (cmath.sin(w) * even - cmath.cos(w) * odd,
               (e_plus * p_plus - e_minus * p_minus) / 2.0j),
        "t6": (e_plus * p_plus, cmath.cos(w) * even + cmath.sin(w) * odd
               + 1j * (cmath.sin(w) * even - cmath.cos(w) * odd)),
    }[tid]
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


class TestSharedInnerSequence:
    @pytest.mark.parametrize("tid", ["t1", "t2", "t3", "t4", "t5", "t6"])
    def test_matches_per_term_reference(self, tid):
        rng = random.Random(SEED + 12)
        for _ in range(4):
            x = rng.uniform(0.3, 1.2)
            case = IdentityCase(identity_id=tid, spec=random_identity_spec(rng, x), x=x)
            assert abs(theorem_residual(case) - _reference_residual(case)) < 1e-13

    def test_one_sequence_and_four_blocks_per_residual(self, monkeypatch):
        made, blocks = [], []

        class Counted(LiftedSequence):
            def __init__(self, *args):
                made.append(args)
                super().__init__(*args)

        def counted_block(*args, **kwargs):
            blocks.append(args[3])
            return series_block(*args, **kwargs)

        monkeypatch.setattr(identities, "LiftedSequence", Counted)
        monkeypatch.setattr(identities, "series_block", counted_block)
        for tid in ("t1", "t2", "t3", "t4", "t5", "t6"):
            made.clear()
            blocks.clear()
            theorem_residual(_case(tid, x=0.7, eta=1.3 + 0.4j))
            assert len(made) == 1
            assert sorted(blocks) == ["all", "all", "even", "odd"]

    def test_lifted_pole_raised_as_before(self):
        case = _case("t4", x=0.8, alpha=-4.0, lam=0.3, pfq=PFqParams((-1.0,), (1.5,)))
        with pytest.raises(LiftedLowerPole):
            theorem_residual(case)
