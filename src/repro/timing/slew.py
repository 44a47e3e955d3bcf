"""Slew (transition time) primitives shared by both timing engines.

Follows the slew model of Sitik et al. referenced by the paper: the output
slew of a stage is combined with the slew degradation of the interconnect via
the PERI rule

    slew_out = sqrt(slew_step^2 + slew_in^2)

where ``slew_step`` of a wire is approximated by ``ln(9) * Elmore`` of that
wire stage, and the slew at a buffer output comes from the buffer model
(NLDM table when available, linear otherwise).  The propagation itself is a
pass of each engine.
"""

from __future__ import annotations

import math

#: ln(9): converts an Elmore delay into a 10%-90% ramp transition time.
LN9 = math.log(9.0)

#: Transition time (ps) assumed at the clock source, shared by every engine.
SOURCE_SLEW = 10.0


def ramp_slew(elmore_delay: float) -> float:
    """Transition time (ps) of an RC stage with the given Elmore delay."""
    if elmore_delay < 0:
        raise ValueError("Elmore delay must be non-negative")
    return LN9 * elmore_delay


def peri_combine(slew_in: float, slew_step: float) -> float:
    """Combine an input slew with a stage slew using the PERI rule."""
    return math.sqrt(slew_in * slew_in + slew_step * slew_step)
