"""The textbook van Ginneken algorithm on a single two-pin wire.

:func:`van_ginneken_wire` places buffers at equally spaced legal positions
along one wire.  The test-suite uses it as an independent oracle for the
DP's buffered patterns, and it doubles as a teaching reference.  The paper's
"Our Buffered Clock Tree" is the concurrent DP on a front-side-only PDK
(:class:`~repro.flow.single_side.SingleSideCTS`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.cells import BufferCell
from repro.tech.layers import LayerRC


@dataclass(frozen=True)
class VanGinnekenSolution:
    """A solution of the textbook single-wire van Ginneken DP."""

    capacitance: float
    delay: float
    buffer_positions: tuple[float, ...]

    @property
    def buffer_count(self) -> int:
        return len(self.buffer_positions)


def van_ginneken_wire(
    length: float,
    load_capacitance: float,
    layer: LayerRC,
    buffer: BufferCell,
    segments: int = 16,
) -> VanGinnekenSolution:
    """Minimal-delay buffer insertion on a single wire (van Ginneken, 1990).

    The wire of ``length`` um drives ``load_capacitance`` fF.  Candidate
    buffer positions are the ``segments - 1`` equally spaced internal points.
    The returned solution minimises the driver-to-load Elmore delay; the
    driver stage itself is not included (consistent with the DP candidates,
    which measure delay from the upstream end of the wire).
    """
    if length < 0 or load_capacitance < 0:
        raise ValueError("length and load must be non-negative")
    if segments < 1:
        raise ValueError("need at least one wire segment")

    step = length / segments
    # One candidate per (capacitance, delay, positions); start at the load end.
    solutions: list[VanGinnekenSolution] = [
        VanGinnekenSolution(load_capacitance, 0.0, ())
    ]
    for i in range(segments):
        # Walk one wire segment toward the driver.
        advanced = [
            VanGinnekenSolution(
                s.capacitance + layer.wire_capacitance(step),
                s.delay + layer.wire_delay(step, s.capacitance),
                s.buffer_positions,
            )
            for s in solutions
        ]
        # Optionally insert a buffer at this internal position (not at the driver).
        position = length - (i + 1) * step
        if i < segments - 1:
            with_buffer = [
                VanGinnekenSolution(
                    buffer.input_capacitance,
                    s.delay + buffer.delay(s.capacitance),
                    s.buffer_positions + (position,),
                )
                for s in advanced
            ]
            advanced.extend(with_buffer)
        solutions = _prune(advanced)
    return min(solutions, key=lambda s: (s.delay, s.capacitance))


def _prune(solutions: list[VanGinnekenSolution]) -> list[VanGinnekenSolution]:
    """Keep only the (capacitance, delay) Pareto staircase."""
    ordered = sorted(solutions, key=lambda s: (s.capacitance, s.delay))
    kept: list[VanGinnekenSolution] = []
    best_delay = float("inf")
    for sol in ordered:
        if sol.delay < best_delay - 1e-12:
            kept.append(sol)
            best_delay = sol.delay
    return kept
