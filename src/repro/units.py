"""Unit conversion helpers used throughout the library.

Internally the library uses SI base units everywhere: seconds, watts,
joules, metres, hertz, bits.  Decibel quantities appear only at module
boundaries (channel gains, SNR thresholds), through the helpers below.

Every helper takes a scalar and returns a Python float, using only
:mod:`math`, so loading the configs (and with them every CLI call) costs
no numpy import.
"""

from __future__ import annotations

import math

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "seconds",
    "milliseconds",
    "microseconds",
    "ms",
    "us",
    "kbps",
    "mbps",
    "kbits",
    "joules",
    "millijoules",
]

_LN10_OVER_10 = math.log(10.0) / 10.0


def db_to_linear(db: float) -> float:
    """Convert a decibel ratio to a linear power ratio (10^(dB/10))."""
    return math.exp(float(db) * _LN10_OVER_10)


def linear_to_db(x: float) -> float:
    """Convert a linear power ratio to decibels (10·log10 x).

    Zero or negative inputs map to ``-inf`` rather than raising, matching
    the physical meaning (no power -> -inf dB).
    """
    x = float(x)
    if x <= 0.0:
        return float("-inf")
    return 10.0 * math.log10(x)


def dbm_to_watts(dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return db_to_linear(dbm) * 1e-3


def watts_to_dbm(watts: float) -> float:
    """Convert a power in watts to dBm; 0 W maps to ``-inf`` dBm."""
    return linear_to_db(watts / 1e-3)


# -- small literal helpers so configs read like the paper -------------------

def seconds(x: float) -> float:
    """Identity, for symmetry: ``seconds(5)`` is 5 s."""
    return float(x)


def milliseconds(x: float) -> float:
    """Milliseconds to seconds."""
    return float(x) * 1e-3


def microseconds(x: float) -> float:
    """Microseconds to seconds."""
    return float(x) * 1e-6


#: Short aliases used pervasively in configs/tests.
ms = milliseconds
us = microseconds


def kbps(x: float) -> float:
    """Kilobits per second to bits per second."""
    return float(x) * 1e3


def mbps(x: float) -> float:
    """Megabits per second to bits per second."""
    return float(x) * 1e6


def kbits(x: float) -> float:
    """Kilobits to bits."""
    return float(x) * 1e3


def joules(x: float) -> float:
    """Identity, for symmetry."""
    return float(x)


def millijoules(x: float) -> float:
    """Millijoules to joules."""
    return float(x) * 1e-3
