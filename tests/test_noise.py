"""Static-noise distributions: deterministic sampling and exact averages."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from conftest import run_child

from spinfid import NOISE_KINDS, NoiseModel
from spinfid.noise import _ndtri

TWO_PI = 2.0 * np.pi
EXP_M2 = np.exp(-2.0)
TOP = 1.0 - 2.0**-53  # largest value Generator.random() returns


def within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> bool:
    return bool(np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))))


class TestConstruction:
    def test_known_kinds(self):
        assert set(NOISE_KINDS) == {"white", "gaussian", "lorentzian"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("pink", 28.0)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("white", -1.0)

    # 2*pi*1e308 is inf, so every draw would be inf or NaN.  The other widths are finite in rad/s, but the
    # widest draw, 8.29 or 3.53e15 widths out, is not.
    @pytest.mark.parametrize("kind, width", [("lorentzian", 1e308), ("gaussian", 3.5e306), ("lorentzian", 1e305)])
    def test_width_that_overflows_in_rad_per_s_rejected(self, kind, width):
        with pytest.raises(ValueError, match="finite in rad/s"):
            NoiseModel(kind, width)

    def test_numpy_scalar_width_that_overflows_is_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite in rad/s"):
                NoiseModel("lorentzian", np.float64(1e308))

    def test_numpy_scalar_width_is_stored_as_a_float(self):
        model = NoiseModel("white", np.float64(28.0))
        assert type(model.width) is float and model == NoiseModel("white", 28.0)

    # The largest |quantile| over the clamped draws u in [2**-54, 1 - 2**-53], and the largest width in Hz it allows.
    REACH = {"white": (1.0, 2.86e307), "gaussian": (8.29, 3.45e306), "lorentzian": (3.53e15, 8.10e291)}

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_largest_widths_in_rad_per_s_construct(self, kind):
        ends = np.array([0.0, TOP])  # the smallest and largest uniform draws
        reach = float(np.max(np.abs(NoiseModel(kind, 1.0, angular_units=True)._quantile(ends))))
        assert reach == pytest.approx(self.REACH[kind][0], rel=1e-3)
        widest = sys.float_info.max / reach
        while not math.isfinite(widest * reach):
            widest = math.nextafter(widest, 0.0)
        model = NoiseModel(kind, widest, angular_units=True)
        assert np.isfinite(model._quantile(ends)).all()
        with pytest.raises(ValueError, match="finite in rad/s"):
            NoiseModel(kind, math.nextafter(widest, math.inf), angular_units=True)
        assert widest / TWO_PI == pytest.approx(self.REACH[kind][1], rel=1e-3)

    def test_stock_model_is_the_default(self):
        assert NoiseModel() == NoiseModel("lorentzian", 28.0)

    def test_width_rad_applies_two_pi(self):
        assert NoiseModel("gaussian", 28.0).width_rad == TWO_PI * 28.0

    def test_angular_units_skip_two_pi(self):
        assert NoiseModel("gaussian", 28.0, angular_units=True).width_rad == 28.0


class TestSampling:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_zero_width_yields_zero(self, kind):
        # The general quantile path: every clamped quantile is finite, so w = 0 gives +0 or -0.
        draws = NoiseModel(kind, 0.0).sample_block(123, 0, 4096)
        assert draws.dtype == np.float64
        assert np.all(draws == 0.0)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("start", [0, 5])
    def test_empty_block_is_an_empty_float_array(self, kind, start):
        draws = NoiseModel(kind, 28.0).sample_block(7, start, 0)
        assert draws.dtype == np.float64
        assert draws.shape == (0,)

    def test_same_seed_same_draws(self):
        model = NoiseModel("gaussian", 28.0)
        a = model.sample_block(42, 0, 257)
        b = model.sample_block(42, 0, 257)
        assert np.array_equal(a, b)

    def test_single_draw_matches_block(self):
        model = NoiseModel("white", 28.0)
        block = model.sample_block(9, 0, 20)
        singles = np.array([model.sample(9, i) for i in range(20)])
        assert np.array_equal(block, singles)

    def test_block_slicing_invariance(self):
        # draws are a pure function of (seed, realization index): starting a
        # block mid-stream must reproduce the tail of the full block exactly
        model = NoiseModel("lorentzian", 28.0)
        full = model.sample_block(1001, 0, 100)
        tail = model.sample_block(1001, 37, 63)
        assert np.array_equal(full[37:], tail)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("seed, start, count", [(3, 0, 5000), (9, 123, 4096), (2**31, 7, 1)])
    def test_matches_the_generator_random_path(self, kind, seed, start, count):
        # Each realization converts the first double Generator.random() draws from its Philox block.
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(start)
        raw = np.random.Generator(bitgen).random(4 * count)[::4]
        model = NoiseModel(kind, 28.0)
        assert model.sample_block(seed, start, count).tobytes() == model._quantile(raw).tobytes()

    def test_different_seeds_differ(self):
        model = NoiseModel("gaussian", 28.0)
        assert not np.array_equal(model.sample_block(1, 0, 50), model.sample_block(2, 0, 50))

    def test_draws_are_finite(self):
        for kind in NOISE_KINDS:
            draws = NoiseModel(kind, 28.0).sample_block(7, 0, 10_000)
            assert np.all(np.isfinite(draws))

    def test_white_draws_bounded_by_width(self):
        model = NoiseModel("white", 28.0)
        draws = model.sample_block(5, 0, 10_000)
        assert np.all(np.abs(draws) <= TWO_PI * 28.0)

    def test_lorentzian_median_absolute_deviation(self):
        # the half-width at half maximum equals the median of |draw|
        model = NoiseModel("lorentzian", 28.0)
        draws = model.sample_block(101, 0, 100_000)
        med = float(np.median(np.abs(draws)))
        assert abs(med - TWO_PI * 28.0) / (TWO_PI * 28.0) < 0.03

    def test_gaussian_std(self):
        model = NoiseModel("gaussian", 28.0)
        draws = model.sample_block(101, 0, 100_000)
        assert abs(np.std(draws) / (TWO_PI * 28.0) - 1.0) < 0.02


class TestGaussianQuantile:
    """The numpy port of Cephes ndtri against scipy.special.ndtri."""

    @pytest.mark.parametrize("seed, start", [(0, 0), (7, 123_457), (101, 0), (2**63 + 5, 9_999_999), (42, 1)])
    def test_sampler_matches_scipy(self, seed, start):
        count = 200_000
        model = NoiseModel("gaussian", 28.0)
        got = model.sample_block(seed, start, count)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(start)
        raw = np.random.Generator(bitgen).random(4 * count)[::4]
        u = np.minimum(raw + 2.0**-54, TOP)
        want = model.width_rad * ndtri(u)
        assert within_ulps(got, want, 8)
        # The central rational approximation takes no log: bit for bit there.
        central = (u > EXP_M2) & (u < 1.0 - EXP_M2)
        assert np.array_equal(got[central], want[central])

    def test_fixed_points(self):
        u = np.array([2.0**-54, 2.0**-53, 1e-20, 1e-14, EXP_M2, 0.5, 0.5 + 2.0**-54, 1.0 - EXP_M2, TOP])
        got = _ndtri(u)
        assert np.all(np.isfinite(got))
        assert within_ulps(got, ndtri(u), 8)
        assert got[5] == 0.0

    def test_tails_are_antisymmetric(self):
        # Multiples of 2**-53 below 1/2 make 1 - u exact, so both tails see
        # the same argument and must agree to the bit, x >= 8 included.
        u = np.unique(np.round(np.geomspace(2.0**-53, 0.13, 5000) * 2.0**53)) * 2.0**-53
        assert np.array_equal(_ndtri(1.0 - u), -_ndtri(u))
        assert _ndtri(u).min() < -8.0

    @pytest.mark.parametrize(
        "kind, at_top",
        [("white", 2.0 * TOP - 1.0), ("gaussian", ndtri(TOP)), ("lorentzian", np.tan(np.pi * (TOP - 0.5)))],
        ids=["white", "gaussian", "lorentzian"],
    )
    def test_top_uniform_draw_is_finite(self, kind, at_top):
        # TOP + 2**-54 ties and rounds to 1.0, where the Gaussian quantile
        # is inf; the top draw must map to the quantile at TOP instead.
        model = NoiseModel(kind, 28.0)
        eta = model._quantile(np.array([TOP]))[0]
        assert np.isfinite(eta)
        assert eta == pytest.approx(model.width_rad * at_top, rel=1e-12)

    def test_runtime_does_not_import_scipy(self):
        # SciPy is a test reference only, and the engine runs without a thread pool.
        absent = ("scipy", "concurrent.futures")
        code = (
            "import sys\n"
            "import spinfid\n"
            "spinfid.NoiseModel('gaussian').sample_block(3, 0, 1000)\n"
            "assert all(r.passed for r in spinfid.run_validation())\n"
            f"print(sorted(m for m in sys.modules if any(m == a or m.startswith(a + '.') for a in {absent!r})))\n"
        )
        result = run_child([sys.executable, "-c", code])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


class TestClosedFormAverages:
    def test_t_zero_normalization(self):
        for kind in NOISE_KINDS:
            model = NoiseModel(kind, 28.0)
            assert model.avg_cos(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_lorentzian_is_exponential(self):
        t = np.linspace(0.0, 0.024, 481)
        model = NoiseModel("lorentzian", 28.0)
        assert np.allclose(model.avg_cos(t), np.exp(-TWO_PI * 28.0 * t), atol=1e-14)

    def test_lorentzian_anchor_value(self):
        model = NoiseModel("lorentzian", 28.0)
        assert model.avg_cos(np.array([0.024]))[0] == pytest.approx(0.01464, abs=5e-5)

    def test_gaussian_profile(self):
        t = np.linspace(0.0, 0.024, 481)
        model = NoiseModel("gaussian", 28.0)
        sigma = TWO_PI * 28.0
        assert np.allclose(model.avg_cos(t), np.exp(-0.5 * (sigma * t) ** 2), atol=1e-14)

    @pytest.mark.parametrize("width", [1e200, 1e300])
    def test_gaussian_at_huge_width_is_the_same_bits_without_warning(self, width):
        # (w t)**2 overflows from w t = 1.3e154 on; every value from w t = 38.6 on is 0.0 either way.
        t = np.concatenate([np.linspace(0.0, 0.024, 481), np.geomspace(1e-320, 1e-140, 200)])
        wt = TWO_PI * width * t
        with np.errstate(over="ignore"):
            want = np.exp(-0.5 * wt**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = NoiseModel("gaussian", width).avg_cos(t)
        assert got.tobytes() == want.tobytes()
        # The same bits at stock widths, where nothing is clamped.
        t = np.linspace(0.0, 0.024, 481)
        assert NoiseModel("gaussian", 28.0).avg_cos(t).tobytes() == np.exp(-0.5 * (TWO_PI * 28.0 * t) ** 2).tobytes()

    def test_white_is_sinc_with_first_zero(self):
        model = NoiseModel("white", 28.0)
        a = TWO_PI * 28.0
        t = np.linspace(1e-6, 0.024, 2001)
        assert np.allclose(model.avg_cos(t), np.sin(a * t) / (a * t), atol=1e-12)
        # first zero of sin(at)/(at) at a*t = pi, i.e. t = 1/(2*28) s
        t_zero = 1.0 / (2.0 * 28.0)
        assert abs(model.avg_cos(np.array([t_zero]))[0]) < 1e-12
        assert t_zero == pytest.approx(17.857e-3, abs=1e-5)

    def test_zero_width_no_decay(self):
        t = np.linspace(0.0, 0.024, 481)
        for kind in NOISE_KINDS:
            assert np.all(NoiseModel(kind, 0.0).avg_cos(t) == 1.0)

    @given(
        kind=st.sampled_from(sorted(NOISE_KINDS)),
        width=st.floats(0.0, 500.0, allow_nan=False),
        t=st.floats(0.0, 0.1, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_avg_cos_bounded(self, kind, width, t):
        value = NoiseModel(kind, width).avg_cos(np.array([t]))[0]
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestMonteCarloAgreement:
    @pytest.mark.parametrize(
        "kind,cos_tol,sin_tol",
        [("white", 4e-3, 4e-3), ("gaussian", 4e-3, 4e-3), ("lorentzian", 5e-3, 8e-3)],
    )
    def test_sampled_mean_cos_matches_closed_form(self, kind, cos_tol, sin_tol):
        # deterministic draws, so these are regression bounds at the shipped
        # seed; the looser Lorentzian sin bound reflects the max-over-grid
        # statistic of heavy-tailed sampling (per-point std of the mean is
        # ~2.2e-3 at 1e5 draws near the end of the window)
        model = NoiseModel(kind, 28.0)
        t = np.linspace(0.0, 0.024, 121)
        draws = model.sample_block(101, 0, 100_000)
        mc_cos = np.mean(np.cos(np.outer(draws, t)), axis=0)
        mc_sin = np.mean(np.sin(np.outer(draws, t)), axis=0)
        assert np.max(np.abs(mc_cos - model.avg_cos(t))) < cos_tol
        assert np.max(np.abs(mc_sin)) < sin_tol
