"""Exception types shared across the package, and the power cap.

Invalid arguments raise the built-in ValueError; the classes below cover
failure modes that a caller may want to catch separately.  A rate counts
as infeasible for every technology alike: when the transmit power it needs
exceeds POWER_UPPER_W.
"""

POWER_UPPER_W = 1e5  # 80 dBm


class InfeasibleError(Exception):
    """The requested rate cannot be met within the allowed power budget."""


class NumericalError(Exception):
    """A numerical routine failed to reach its accuracy target."""


def capped_power(power_w: float, target_rate: float) -> float:
    """``power_w``, or InfeasibleError when it exceeds POWER_UPPER_W or is NaN."""
    if not power_w <= POWER_UPPER_W:
        raise InfeasibleError(f"rate {target_rate} unreachable within {POWER_UPPER_W:.0e} W")
    return power_w
