import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperlab import cli, limits
from hyperlab.errors import DomainError


class TestPowerBound:
    def test_unit_cancelling_input(self):
        w = limits.PLANCK / (2 * math.pi)
        assert abs(limits.max_frequency_from_power(w) - 1.0) < 1e-12

    def test_one_watt(self):
        expected = math.sqrt(2 * math.pi / 6.62607015e-34)
        assert limits.max_frequency_from_power(1.0) == expected
        assert 9.7e16 < expected < 9.8e16

    def test_scaling_law(self):
        assert abs(limits.max_frequency_from_power(2.0)
                   / limits.max_frequency_from_power(1.0) - math.sqrt(2)) < 1e-12

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            limits.max_frequency_from_power(0.0)

    @pytest.mark.parametrize("watts", [math.nan, math.inf, 1e308])
    def test_rejects_non_finite_power_or_an_overflowing_cap(self, watts):
        with pytest.raises(DomainError, match="power"):
            limits.max_frequency_from_power(watts)


class TestEnergyBound:
    def test_one_second_step(self):
        expected = 6.62607015e-34 / (2 * math.pi)
        assert limits.min_step_energy(1.0) == expected
        assert 1.05e-34 < expected < 1.06e-34

    def test_inverse_law(self):
        assert abs(limits.min_step_energy(0.5) / limits.min_step_energy(1.0) - 2) < 1e-12

    def test_energy_times_frequency_recovers_power(self):
        f = limits.max_frequency_from_power(1.0)
        energy = limits.min_step_energy(1.0 / f)
        assert abs(energy * f - 1.0) < 1e-9  # back to the 1 W that set the pace

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            limits.min_step_energy(-1.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_duration(self, dt):
        with pytest.raises(DomainError, match="step duration"):
            limits.min_step_energy(dt)

    def test_smallest_duration_gives_a_finite_floor(self):
        assert math.isfinite(limits.min_step_energy(5e-324))


class TestGeometryBounds:
    def test_single_symbol_volume(self):
        a = limits.BOHR_RADIUS
        assert limits.min_symbol_volume(1) == (4 / 3) * math.pi * a**3
        assert 6.1e-31 < limits.min_symbol_volume(1) < 6.3e-31

    def test_single_symbol_distance_is_one_diameter(self):
        assert limits.min_symbol_distance(1) == 2 * limits.BOHR_RADIUS

    def test_thousand_symbols_distance(self):
        assert abs(limits.min_symbol_distance(1000)
                   - 20 * limits.BOHR_RADIUS) < 1e-22

    def test_rejects_zero_symbols(self):
        with pytest.raises(DomainError):
            limits.min_symbol_volume(0)
        with pytest.raises(DomainError):
            limits.min_symbol_distance(0)

    def test_symbol_counts_past_the_float_range(self):
        largest = int(sys.float_info.max)
        assert math.isfinite(limits.limits_report(largest)["min_symbol_volume_m3"])
        for fn in (limits.min_symbol_volume, limits.min_symbol_distance,
                   lambda z: limits.bound_product_holds(1.0, z)):
            with pytest.raises(DomainError):
                fn(largest + 2**971)


class TestFrequencyAlphabetBound:
    def test_single_symbol_rate(self):
        f1 = limits.max_frequency_from_alphabet(1)
        assert abs(f1 - limits.SPEED_OF_LIGHT / (2 * limits.BOHR_RADIUS)) < 1
        assert 2.82e18 < f1 < 2.84e18

    def test_eight_symbols_halve_the_rate(self):
        assert abs(limits.max_frequency_from_alphabet(8)
                   / limits.max_frequency_from_alphabet(1) - 0.5) < 1e-12

    def test_quoted_constant_within_two_tenths_percent(self):
        c_over_a = limits.SPEED_OF_LIGHT / limits.BOHR_RADIUS
        gap = abs(c_over_a - limits.QUOTED_RATE_CONSTANT) / c_over_a
        assert gap < 0.002

    @given(st.integers(1, 10**6))
    def test_product_bound_holds_with_equality(self, z):
        f = limits.max_frequency_from_alphabet(z)
        assert limits.bound_product_holds(f, z)
        # equality within 1e-12 relative: the bound is saturated by definition
        assert abs(f * z ** (1 / 3) - 0.5 * limits.SPEED_OF_LIGHT / limits.BOHR_RADIUS) \
            <= 1e-12 * 0.5 * limits.SPEED_OF_LIGHT / limits.BOHR_RADIUS

    @given(st.integers(1, 10**6))
    def test_strictly_decreasing_in_alphabet_size(self, z):
        assert limits.max_frequency_from_alphabet(z) \
            > limits.max_frequency_from_alphabet(z + 1)


class TestReport:
    def test_full_report_fields(self):
        report = limits.limits_report(8, power=1.0, dt=0.5)
        for key in ("min_symbol_volume_m3", "min_symbol_distance_m",
                    "max_frequency_from_alphabet_hz", "max_frequency_from_power_hz",
                    "min_step_energy_j", "computed_half_c_over_a", "relative_gap"):
            assert key in report
        assert all(v > 0 for k, v in report.items()
                   if isinstance(v, float) and k != "relative_gap")

    @pytest.mark.parametrize("flag, value, quantity", [
        ("--power", "nan", "power"), ("--power", "inf", "power"), ("--power", "1e308", "power"),
        ("--dt", "nan", "step duration"), ("--dt", "inf", "step duration")])
    def test_cli_refuses_power_or_duration_before_the_report(self, flag, value, quantity):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.main(["limits", "--symbols", "4", flag, value])
        assert status == 1 and out.getvalue() == ""
        payload = json.loads(err.getvalue())
        assert payload["error"] == "domain-error" and quantity in payload["message"]

    def test_consistency_check(self):
        check = limits.rate_constant_consistency()
        assert 2.80e18 <= check["computed_half_c_over_a"] <= 2.86e18
        assert check["relative_gap"] < 0.005
