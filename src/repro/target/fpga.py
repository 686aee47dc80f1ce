"""FPGA device descriptions: capacity and the eq. 11 area test.

The paper measures functional-unit area in XC4000 *function generators*
(FGs; two per CLB) and derates the raw device capacity by a synthesis
efficiency factor ``alpha`` in eq. 11: a partition whose FU set costs
``sum FG(k)`` raw function generators fits the device iff

    alpha * sum FG(k)  <=  C.

:class:`FPGADevice` carries ``(C, alpha)`` plus the full-device
reconfiguration time used by the wall-clock cost model
(:mod:`repro.target.reconfig`).  :func:`device_catalog` provides the
XC4000-series parts the paper's platform drew from, with capacities
equal to their function-generator counts (2 FGs per CLB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import TargetError

#: Default synthesis-efficiency factor (eq. 11's alpha).
DEFAULT_ALPHA = 0.7

#: Default full-device reconfiguration time in microseconds.  XC4000
#: parts reconfigure in the low-millisecond range; 1 ms is the round
#: reference value the cost model uses unless a device says otherwise.
DEFAULT_RECONFIG_TIME_US = 1000.0


@dataclass(frozen=True)
class FPGADevice:
    """One reconfigurable device: name, capacity ``C``, factor ``alpha``.

    Parameters
    ----------
    name:
        Catalog or user-chosen identifier.
    capacity:
        Device capacity ``C`` in function generators (> 0).
    alpha:
        Synthesis-efficiency factor in ``(0, 1]``; eq. 11 charges a
        partition ``alpha * sum FG(k)`` against ``C``.
    reconfig_time_us:
        Full-device reconfiguration time in microseconds (> 0), used by
        :class:`~repro.target.reconfig.ReconfigCostModel`.
    """

    name: str
    capacity: int
    alpha: float = DEFAULT_ALPHA
    reconfig_time_us: float = DEFAULT_RECONFIG_TIME_US

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or self.capacity <= 0:
            raise TargetError(
                f"device capacity must be an int > 0, got {self.capacity!r}"
            )
        if not (0.0 < self.alpha <= 1.0):
            raise TargetError(
                f"device alpha must be in (0, 1], got {self.alpha!r}"
            )
        if self.reconfig_time_us <= 0.0:
            raise TargetError(
                f"reconfig_time_us must be > 0, got {self.reconfig_time_us!r}"
            )

    # ------------------------------------------------------------------

    def effective_cost(self, fg_cost: float) -> float:
        """Eq. 11's left-hand side: ``alpha * fg_cost``.

        ``fg_cost`` is the raw function-generator cost of an FU set;
        the synthesis factor derates it to the area actually charged
        against the device.
        """
        if fg_cost < 0:
            raise TargetError(f"fg_cost must be >= 0, got {fg_cost!r}")
        return self.alpha * fg_cost

    def fits(self, fg_cost: float) -> bool:
        """Eq. 11's area test: does ``alpha * fg_cost <= C`` hold?"""
        return self.effective_cost(fg_cost) <= self.capacity

def device_catalog() -> "Dict[str, FPGADevice]":
    """XC4000-series parts by name, capacities in function generators.

    Two function generators per CLB: XC4005 (14x14 CLBs) -> 392,
    XC4010 (20x20) -> 800, XC4025 (32x32) -> 2048.
    """
    devices = (
        FPGADevice("xc4005", capacity=392),
        FPGADevice("xc4010", capacity=800),
        FPGADevice("xc4025", capacity=2048),
    )
    return {dev.name: dev for dev in devices}
