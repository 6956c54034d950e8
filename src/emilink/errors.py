"""The package's one exception type, the power cap and the rate rule.

Invalid arguments raise the built-in ValueError; NumericalError marks a
numerical routine that missed its accuracy target.  Infeasibility is a
value: the power functions return the power they compute, however large
(inf for a zero cascaded surface channel), and a rate counts as infeasible
for every technology alike when that power is not at most POWER_UPPER_W,
which ``bench._row`` alone tests.
"""

import math

POWER_UPPER_W = 1e5  # 80 dBm


class NumericalError(Exception):
    """A numerical routine failed to reach its accuracy target."""


def pow2m1(x: float) -> float:
    """2^x - 1, the SNR a rate of x bit/s/Hz needs, or inf where 2^x overflows a
    float (x >= 1024), so that a huge target reads as infeasible.  ValueError
    unless x > 0 and 2^x - 1 > 0, which rejects NaN and x below ~1.6e-16."""
    snr = 2.0 ** x - 1.0 if x < 1024.0 else math.inf
    if not (x > 0 and snr > 0):
        raise ValueError(f"target rate must be positive with 2^R - 1 > 0 (R >~ 1.6e-16), got {x!r}")
    return snr
