"""Physical bounds on mechanical computation.

Four bounds, all driven by SI constants: a thermodynamic cap on stepping
frequency from available power, the uncertainty-principle floor on per-step
energy, the minimum volume and spacing needed to keep z distinct symbols
readable at atomic scale, and the resulting signal-propagation cap on
frequency as the alphabet grows.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

SPEED_OF_LIGHT = 299_792_458.0  # c, m/s
PLANCK = 6.62607015e-34  # h, J*s
BOHR_RADIUS = 5.29177210903e-11  # a, of hydrogen, m

# rounded figure the frequency-alphabet bound is usually quoted with, in s^-1;
# the constants above give c/a about 0.18% higher
QUOTED_RATE_CONSTANT = 5.655e18


def max_frequency_from_power(watts: float) -> float:
    """Frequency cap from power draw: f <= sqrt(2*pi*W/h) steps per second."""
    if not 0 < watts < math.inf:
        raise DomainError(f"power must be positive and finite, got {watts!r} W")
    frequency = math.sqrt(2.0 * math.pi * watts / PLANCK)
    if frequency == math.inf:
        raise DomainError(f"a power of {watts!r} W puts the frequency cap past the float range")
    return frequency


def min_step_energy(dt: float) -> float:
    """Uncertainty floor on the energy of a step lasting dt: E >= h/(2*pi*dt)."""
    if not 0 < dt < math.inf:
        raise DomainError(f"step duration must be positive and finite, got {dt!r} s")
    return PLANCK / (2.0 * math.pi * dt)


def _require_symbols(z: int) -> None:
    # the bounds below take z as a float
    if not 1 <= z <= sys.float_info.max:
        raise DomainError(f"symbol count must lie in 1..{sys.float_info.max:.4g}")


def min_symbol_volume(z: int) -> float:
    """Minimum volume holding z symbols, one atomic sphere each: (4/3)*pi*a^3*z."""
    _require_symbols(z)
    return (4.0 / 3.0) * math.pi * BOHR_RADIUS**3 * z


def min_symbol_distance(z: int) -> float:
    """Minimum distance between two of z packed symbols: d = 2*a*z**(1/3)."""
    _require_symbols(z)
    return 2.0 * BOHR_RADIUS * z ** (1.0 / 3.0)


def max_frequency_from_alphabet(z: int) -> float:
    """Signal-propagation cap: f <= c / (2*a*z**(1/3)) steps per second."""
    return SPEED_OF_LIGHT / min_symbol_distance(z)


def bound_product_holds(f: float, z: int) -> bool:
    """Check f * z**(1/3) <= (1/2) * (c/a), with a relative slack of 1e-12 for roundoff."""
    _require_symbols(z)
    lhs = f * z ** (1.0 / 3.0)
    rhs = 0.5 * SPEED_OF_LIGHT / BOHR_RADIUS
    return lhs <= rhs * (1.0 + 1e-12)


def rate_constant_consistency() -> dict:
    """Computed (1/2)*(c/a) against the quoted rounding; gap stays under 0.5%."""
    computed = 0.5 * SPEED_OF_LIGHT / BOHR_RADIUS
    quoted = 0.5 * QUOTED_RATE_CONSTANT
    return {
        "computed_half_c_over_a": computed,
        "quoted_half_rate": quoted,
        "relative_gap": abs(computed - quoted) / computed,
    }


def limits_report(z: int, power: float | None = None, dt: float | None = None) -> dict:
    """Every bound for an alphabet of z symbols, plus the consistency check.

    The volume formula is an interpretation: the source typography reads like
    "(4/3) z pi a^3 m^3" and we take the trailing m^3 as a units annotation,
    not a factor.
    """
    frequency = max_frequency_from_alphabet(z)
    report: dict = {
        "symbols": z,
        "min_symbol_volume_m3": min_symbol_volume(z),
        "min_symbol_distance_m": min_symbol_distance(z),
        "max_frequency_from_alphabet_hz": frequency,
        "frequency_alphabet_product_ok": bound_product_holds(frequency, z),
        "volume_formula_note": "trailing m^3 read as units, not a factor",
    }
    if power is not None:
        report["power_w"] = power
        report["max_frequency_from_power_hz"] = max_frequency_from_power(power)
    if dt is not None:
        report["step_duration_s"] = dt
        report["min_step_energy_j"] = min_step_energy(dt)
    report.update(rate_constant_consistency())
    return report
