import dataclasses
import math

import numpy as np
import pytest

from atompair import (
    InitialAmplitudes,
    SystemParams,
    bell_state,
    integrate_pseudomode,
    residue_coefficients,
)

from conftest import fig_params, random_init, random_params


class TestSystemParams:
    def test_lam_keyword_accepts_only_the_unit(self):
        # rates are in units of lambda: a caller's lam = 1 is the unit itself
        # and changes nothing, and any other value, finite or not, is refused
        p = SystemParams(W=1.0, alpha1=1.0, alpha2=0.5, K=2.0)
        assert SystemParams(lam=1.0, W=1.0, alpha1=1.0, alpha2=0.5, K=2.0) == p
        assert [f.name for f in dataclasses.fields(p)] == ["W", "alpha1", "alpha2", "K"]
        for lam in (0.0, -1.0, 2.5, math.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="lam must be 1"):
                SystemParams(lam=lam, W=1.0, alpha1=1.0, alpha2=0.5, K=2.0)

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError, match="lam"):
            SystemParams(lam=0.0, W=1.0, alpha1=1.0, alpha2=1.0, K=0.0)
        with pytest.raises(ValueError, match="lam"):
            SystemParams(lam=-1.0, W=1.0, alpha1=1.0, alpha2=1.0, K=0.0)

    def test_rejects_negative_couplings(self):
        with pytest.raises(ValueError, match="W"):
            SystemParams(W=-1.0, alpha1=1.0, alpha2=1.0, K=0.0)
        with pytest.raises(ValueError, match="alpha"):
            SystemParams(W=1.0, alpha1=-0.5, alpha2=1.0, K=0.0)

    def test_rejects_fully_uncoupled_atoms(self):
        with pytest.raises(ValueError, match="alpha1 and alpha2"):
            SystemParams(W=1.0, alpha1=0.0, alpha2=0.0, K=0.0)

    def test_signed_dipole_strength_allowed(self):
        SystemParams(W=1.0, alpha1=1.0, alpha2=0.5, K=-3.0)

    @pytest.mark.parametrize("field", ["lam", "W", "alpha1", "alpha2", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, field, value):
        # lam is the keyword kept for callers written for a general half-width
        kwargs = dict(lam=1.0, W=1.0, alpha1=1.0, alpha2=0.5, K=2.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SystemParams(**kwargs)


class TestDerive:
    """R, r1 and r2, the properties of SystemParams."""

    def test_printed_definitions(self):
        p = SystemParams(W=5.0, alpha1=math.sqrt(3.0), alpha2=1.0, K=0.0)
        assert p.R == pytest.approx(10.0, abs=1e-12)
        assert p.r1 == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
        assert p.r2 == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_case(self):
        p = SystemParams(W=1.0, alpha1=1.0, alpha2=1.0, K=0.0)
        assert p.r1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert p.r2 == p.r1
        assert p.R == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_good_cavity_regime(self):
        # any alphas with W = 10/sqrt(a1^2+a2^2) give R = 10
        for a1, a2 in [(2.0, 1.0), (0.3, 0.7), (1.0, 0.0)]:
            W = 10.0 / math.hypot(a1, a2)
            p = SystemParams(W=W, alpha1=a1, alpha2=a2, K=0.0)
            assert p.R == pytest.approx(10.0, rel=1e-14)

    def test_unit_relative_couplings(self, rng):
        for _ in range(50):
            p = random_params(rng)
            assert abs(p.r1 ** 2 + p.r2 ** 2 - 1.0) < 1e-12

    def test_uncoupled_second_atom_has_no_ratio(self):
        p = SystemParams(W=1.0, alpha1=1.0, alpha2=0.0, K=0.0)
        assert p.r2 == 0.0

    def test_rel_quantities_exact_by_construction(self):
        # each property is its one expression in the inputs, bit for bit
        p = SystemParams(W=4.0, alpha1=1.0, alpha2=2.0, K=-3.0)
        norm = math.hypot(p.alpha1, p.alpha2)
        assert (p.R, p.r1, p.r2) == (p.W * norm, p.alpha1 / norm, p.alpha2 / norm)


class TestInitialStates:
    def test_bell_states(self):
        minus = bell_state("minus")
        plus = bell_state("plus")
        s = 0.70710678
        assert minus.c10 == pytest.approx(s, abs=1e-8)
        assert minus.c20 == pytest.approx(-s, abs=1e-8)
        assert plus.c10 == pytest.approx(s, abs=1e-8)
        assert plus.c20 == pytest.approx(s, abs=1e-8)
        # unit norm to the last representable digit
        for state in (plus, minus):
            assert abs(abs(state.c10) ** 2 + abs(state.c20) ** 2 - 1.0) <= 1e-15
        # each is a checked value: rebuilding it from its amplitudes passes
        assert InitialAmplitudes(plus.c10, plus.c20) == plus
        assert InitialAmplitudes(minus.c10, minus.c20) == minus

    def test_bell_state_rejects_unknown_sign(self):
        with pytest.raises(ValueError):
            bell_state("pm")

    def test_validate_strict_accepts_unit_norm(self):
        init = InitialAmplitudes(1.0, 0.0)
        assert (init.c10, init.c20) == (1.0, 0.0)

    def test_validate_strict_rejects_off_norm(self):
        with pytest.raises(ValueError, match="norm"):
            InitialAmplitudes(1.0 + 1e-4, 0.0)

    def test_validate_renormalize_scales(self):
        out = InitialAmplitudes.normalized(2.0, 0.0)
        assert out.c10 == pytest.approx(1.0, abs=1e-15)
        assert out.c20 == 0.0

    def test_zero_vector_always_rejected(self):
        for build in (InitialAmplitudes, InitialAmplitudes.normalized):
            with pytest.raises(ValueError, match="zero"):
                build(0.0, 0.0)

    @pytest.mark.parametrize("build", [
        pytest.param(InitialAmplitudes, id="strict"),
        pytest.param(InitialAmplitudes.normalized, id="renormalize"),
    ])
    @pytest.mark.parametrize("c10", [complex(math.nan, 0.0), complex(0.6, math.inf), 1e200])
    def test_non_finite_norm_rejected(self, build, c10):
        with pytest.raises(ValueError, match="finite norm"):
            build(c10, 0.8j)


class TestCovariances:
    def test_global_phase_covariance(self, rng):
        p = fig_params(K=2.0)
        init = random_init(rng)
        phase = np.exp(1j * 0.731)
        shifted = InitialAmplitudes(init.c10 * phase, init.c20 * phase)
        t = np.linspace(0.0, 8.0, 41)
        a = residue_coefficients(p, init).evolve(t)
        b = residue_coefficients(p, shifted).evolve(t)
        for x, y in zip(a, b):
            assert np.abs(y - phase * x).max() < 1e-10
