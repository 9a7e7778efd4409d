import math

import numpy as np
import pytest

from atompair import (
    InitialAmplitudes,
    SystemParams,
    asymptotic_t_end,
    bell_state,
    char_roots,
    concurrence_array,
    concurrence_series,
    disentanglement_time,
    integrate_pseudomode,
    residue_coefficients,
    sample_closed_form,
    steady_state_verdict,
)

from conftest import INV_SQRT2, SQRT3_2, equal_params, fig_params, random_init, random_params

DARK_PLATEAU = (3.0 + 2.0 * math.sqrt(3.0)) / 8.0  # 0.8080127..., r1 = sqrt(3)/2 case


class TestConcurrence:
    def test_examples(self):
        assert concurrence_array(INV_SQRT2, INV_SQRT2) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_array(1.0, 0.0) == 0.0
        assert concurrence_array(0.6, 0.3j) == pytest.approx(0.36, abs=1e-12)

    def test_range_and_zeroterms(self, rng):
        for _ in range(30):
            c = random_init(rng)
            scale = rng.uniform(0.0, 1.0)
            val = concurrence_array(scale * c.c10, scale * c.c20)
            assert 0.0 <= val <= 1.0
        assert concurrence_array(0.0, 0.9) == 0.0

    def test_phase_invariance(self, rng):
        c = random_init(rng)
        ph = np.exp(0.37j)
        assert concurrence_array(c.c10, c.c20) == pytest.approx(
            concurrence_array(ph * c.c10, ph * c.c20), rel=1e-14
        )


class TestVerdict:
    def test_equal_coupling_single_excitation(self):
        v = steady_state_verdict(equal_params(K=3.0), InitialAmplitudes(1.0, 0.0))
        assert v.steady and v.regime == "equal_coupling"
        assert v.asymptotic_concurrence == pytest.approx(0.5, abs=1e-12)
        assert v.surviving_pole == pytest.approx(3j, abs=1e-12)

    def test_equal_coupling_protected_bell(self):
        v = steady_state_verdict(equal_params(K=11.0), bell_state("minus"))
        assert v.asymptotic_concurrence == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K", [1e5, 1e6])
    def test_equal_coupling_strong_dipole(self, K):
        # the bright mode's roots decay at about R^2 / K^2, within the
        # root finder's axis tolerance, beside the pole at i K
        v = steady_state_verdict(equal_params(K=K), bell_state("minus"))
        assert v.steady and v.regime == "equal_coupling"
        assert v.surviving_pole == complex(0.0, K)
        assert v.asymptotic_concurrence == pytest.approx(1.0, abs=1e-12)

    def test_zero_dipole_dark_projection(self):
        p = fig_params(K=0.0)
        v = steady_state_verdict(p, bell_state("minus"))
        assert v.steady and v.regime == "zero_K"
        assert v.surviving_pole == 0.0
        assert v.asymptotic_concurrence == pytest.approx(DARK_PLATEAU, abs=1e-12)
        # long-horizon integration agrees
        traj = integrate_pseudomode(p, bell_state("minus"), 200.0)
        _, conc = concurrence_series(traj)
        assert conc[-1] == pytest.approx(DARK_PLATEAU, abs=1e-4)

    def test_generic_case_decays(self):
        v = steady_state_verdict(fig_params(K=2.0), bell_state("minus"))
        assert not v.steady
        assert v.regime == "decaying"
        assert v.surviving_pole is None
        assert v.asymptotic_concurrence == 0.0

    def test_rejects_decoupled_reservoir(self):
        p = SystemParams(W=0.0, alpha1=1.0, alpha2=1.0, K=2.0)
        with pytest.raises(ValueError, match="W > 0"):
            steady_state_verdict(p, bell_state("minus"))

    def test_verdict_matches_longtime_numerics(self, rng):
        # steady iff |c1 c2| survives at the spectral-gap horizon
        cases = []
        for _ in range(6):
            cases.append(fig_params(K=0.0, R=rng.uniform(2.0, 15.0), r1=rng.uniform(0.1, 0.9)))
            cases.append(equal_params(K=rng.uniform(-15.0, 15.0), R=rng.uniform(2.0, 15.0)))
            cases.append(random_params(rng))
        for p in cases:
            init = random_init(rng)
            v = steady_state_verdict(p, init)
            t_end = asymptotic_t_end(p)
            c1, c2, _ = residue_coefficients(p, init).evolve(t_end)
            survived = abs(c1 * c2) > 1e-6
            assert survived == v.steady

    def test_phase_invariant(self, rng):
        p = fig_params(K=0.0)
        init = random_init(rng)
        ph = np.exp(1.2j)
        shifted = InitialAmplitudes(ph * init.c10, ph * init.c20)
        a = steady_state_verdict(p, init)
        b = steady_state_verdict(p, shifted)
        assert a.regime == b.regime
        assert a.asymptotic_concurrence == pytest.approx(
            b.asymptotic_concurrence, rel=1e-12
        )


class TestAsymptoticHorizon:
    @pytest.mark.parametrize("K", [3e4, 1e5, 1e6])
    def test_outlasts_the_bright_mode_at_strong_dipole(self, K):
        # equal couplings: the pole at i K survives, and the bright mode's root
        # near -i K decays at about R^2 / K^2, within about 1e-7 of the axis
        p, init = equal_params(K=K), bell_state("plus")
        bright = min(char_roots(p), key=lambda s: abs(s + 1j * K))
        t_end = asymptotic_t_end(p)
        assert t_end >= 10.0 / abs(bright.real)
        c1, c2, _ = residue_coefficients(p, init).evolve(t_end)
        verdict = steady_state_verdict(p, init)
        assert abs(2.0 * abs(c1) * abs(c2) - verdict.asymptotic_concurrence) <= 1e-3

    @pytest.mark.parametrize("d", [1e-8, 1e-10])
    def test_couplings_equal_to_the_root_finders_resolution(self, d):
        # classified as decaying, but the dark mode's root decays at a rate of
        # order (r1 - r2)^2 R^2 / K^2: its real part is rounding, and the
        # horizon is at least as long as that decay
        p = SystemParams(W=10.0, alpha1=INV_SQRT2 + d, alpha2=INV_SQRT2, K=1e3)
        assert steady_state_verdict(p, bell_state("minus")).regime == "decaying"
        assert asymptotic_t_end(p) >= 1e15

    def test_decoupled_reservoir(self):
        # W = 0: only the mode at -1 decays, and the horizon is 50 of its
        # correlation times
        p = SystemParams(W=0.0, alpha1=1.0, alpha2=1.0, K=1.5)
        assert asymptotic_t_end(p) == 50.0


class TestSeries:
    def test_protected_state_stays_maximal(self):
        p = equal_params(K=7.0)
        traj = sample_closed_form(p, bell_state("minus"), np.linspace(0.0, 50.0, 501))
        _, conc = concurrence_series(traj)
        assert np.abs(conc - 1.0).max() < 1e-9

    def test_bell_states_start_maximal(self):
        for sign in ("plus", "minus"):
            traj = sample_closed_form(
                fig_params(K=2.0), bell_state(sign), np.linspace(0.0, 1.0, 11)
            )
            _, conc = concurrence_series(traj)
            assert conc[0] == pytest.approx(1.0, abs=1e-9)

    def test_single_excitation_never_entangles(self):
        p = SystemParams(W=10.0, alpha1=1.0, alpha2=0.0, K=0.0)
        traj = integrate_pseudomode(p, InitialAmplitudes(1.0, 0.0), 10.0)
        _, conc = concurrence_series(traj)
        assert conc.max() == 0.0


class TestDisentanglementTime:
    def test_steady_case_never_crosses(self):
        p = fig_params(K=0.0)
        traj = sample_closed_form(p, bell_state("minus"), np.linspace(0.0, 80.0, 8001))
        series = concurrence_series(traj)
        assert disentanglement_time(series, 0.1, window=1.0) is None

    def test_decaying_case_crosses(self):
        p = fig_params(K=7.0)
        traj = sample_closed_form(p, bell_state("minus"), np.linspace(0.0, 40.0, 4001))
        series = concurrence_series(traj)
        td = disentanglement_time(series, 0.1, window=1.0)
        assert td is not None and 0.0 < td < 20.0

    def test_constant_series_never_crosses(self):
        t = np.linspace(0.0, 10.0, 101)
        assert disentanglement_time((t, np.ones_like(t)), 0.5, window=1.0) is None

    def test_debounce_skips_transient_dips(self):
        t = np.linspace(0.0, 10.0, 1001)
        vals = np.ones_like(t)
        vals[(t > 2.0) & (t < 2.5)] = 0.01  # short dip, shorter than the window
        vals[t > 6.0] = 0.01               # final crossing
        td = disentanglement_time((t, vals), 0.1, window=1.0)
        assert td == pytest.approx(t[t > 6.0][0], abs=1e-9)

    def test_unconfirmed_tail_is_not_a_crossing(self):
        t = np.linspace(0.0, 10.0, 101)
        vals = np.ones_like(t)
        vals[t > 9.5] = 0.01  # crosses, but the series ends inside the window
        assert disentanglement_time((t, vals), 0.1, window=1.0) is None

    def test_threshold_validation(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="threshold"):
            disentanglement_time((t, np.ones_like(t)), 1.5, window=1.0)
        # the window and the series are checked too
        with pytest.raises(ValueError, match="window"):
            disentanglement_time((t, np.ones_like(t)), 0.5, window=-1.0)
        with pytest.raises(ValueError, match="equally sized"):
            disentanglement_time((t, np.ones(5)), 0.5, window=1.0)

    def test_matches_per_sample_loop(self, rng):
        # values on three levels, so that runs below the threshold alternate
        # with plateaus exactly at it and stretches above it
        threshold = 0.3
        seen = {"plateau": 0, "window_0": 0, "to_last": 0, "none": 0, "crossing": 0}
        for _ in range(3000):
            n = int(rng.integers(1, 40))
            t = np.cumsum(rng.uniform(0.0, 1.0, n)) - rng.uniform(0.0, 1.0)
            levels = np.array([threshold - 0.1, threshold, threshold + 0.1])
            values = levels[rng.integers(0, 3, n)]
            window = float(rng.choice([0.0, rng.uniform(0.0, 2.0), rng.uniform(2.0, 10.0)]))
            expected = disentanglement_time_loop(t, values, threshold, window)
            assert disentanglement_time((t, values), threshold, window) == expected
            seen["plateau"] += bool(np.any(values == threshold))
            seen["window_0"] += window == 0.0
            seen["to_last"] += bool(values[-1] < threshold)
            seen["none"] += expected is None
            seen["crossing"] += expected is not None
        assert min(seen.values()) > 100, seen


def disentanglement_time_loop(t, values, threshold, window):
    """The per-sample loop that ``disentanglement_time`` replaced, kept as its reference."""
    below = values < threshold
    n = t.size
    i = 0
    while i < n:
        if not below[i]:
            i += 1
            continue
        j = i
        while j < n and below[j]:
            j += 1
        confirm_until = t[i] + window
        if t[n - 1] >= confirm_until and (j == n or t[j - 1] >= confirm_until):
            return float(t[i])
        i = j
    return None


class TestPublishedFormDiscrepancy:
    def test_published_zero_dipole_form_overshoots(self):
        # A published closed form for the zero-dipole asymptote evaluates to
        # ~1.29 (> 1) for the protected Bell state at r1 = sqrt(3)/2, while
        # the dark-projection value matches long-time numerics; they differ
        # by the factor r1^4 + r2^4.
        r1, r2 = SQRT3_2, 0.5
        alpha = r1 / r2
        init = bell_state("minus")
        published = (
            2.0
            * abs(init.c10 / alpha - init.c20)
            * abs(alpha * init.c20 - init.c10)
            / (alpha ** 2 + alpha ** -2)
        )
        assert published > 1.0
        dark = 2.0 * r1 * r2 * abs(r2 * init.c10 - r1 * init.c20) ** 2
        assert dark == pytest.approx(DARK_PLATEAU, abs=1e-12)
        assert published == pytest.approx(dark / (r1 ** 4 + r2 ** 4), rel=1e-12)
