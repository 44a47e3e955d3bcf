"""Clock tree quality metrics (the columns of Table III).

Beyond the paper's single-operating-point columns, metrics can carry a
multi-corner sign-off: pass ``corners=`` to :func:`evaluate_tree` and the
per-corner skews/latencies (plus the worst-corner summary columns) ride
along with the nominal numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.ir.design import DesignArrays
from repro.tech.corners import CornerSet, Scenario
from repro.tech.layers import Side
from repro.tech.pdk import Pdk
from repro.timing import create_engine
from repro.timing.vectorized import VectorizedElmoreEngine


@dataclass(frozen=True)
class ClockTreeMetrics:
    """The paper's evaluation metrics for one synthesised clock tree.

    Attributes:
        design: design name the tree belongs to.
        flow: name of the flow that produced the tree (for comparison tables).
        latency: maximum source-to-sink delay (ps).
        skew: maximum minus minimum sink arrival (ps).
        buffers: number of inserted clock buffers.
        ntsvs: number of inserted nTSVs.
        wirelength: total clock wirelength (um).
        front_wirelength / back_wirelength: per-side split of the wirelength.
        runtime: flow runtime in seconds (0 when not measured).
        sinks: number of clock sinks.
        corner_skews: corner name -> skew (ps); empty for nominal-only runs.
        corner_latencies: corner name -> latency (ps); empty for nominal-only
            runs.
    """

    design: str
    flow: str
    latency: float
    skew: float
    buffers: int
    ntsvs: int
    wirelength: float
    front_wirelength: float
    back_wirelength: float
    runtime: float
    sinks: int
    corner_skews: Mapping[str, float] = field(default_factory=dict)
    corner_latencies: Mapping[str, float] = field(default_factory=dict)

    @property
    def resource_count(self) -> int:
        """Buffers + nTSVs (the x-axis of Fig. 12)."""
        return self.buffers + self.ntsvs

    @property
    def backside_fraction(self) -> float:
        """Fraction of the clock wirelength routed on the back side."""
        if self.wirelength == 0:
            return 0.0
        return self.back_wirelength / self.wirelength

    @property
    def worst_skew(self) -> float:
        """The largest skew across the corner set (nominal when no corners)."""
        if not self.corner_skews:
            return self.skew
        return max(self.corner_skews.values())

    @property
    def worst_latency(self) -> float:
        """The largest latency across the corner set (nominal when no corners)."""
        if not self.corner_latencies:
            return self.latency
        return max(self.corner_latencies.values())

    @property
    def worst_skew_corner(self) -> str:
        """Name of the corner with the largest skew (empty when no corners)."""
        if not self.corner_skews:
            return ""
        return max(self.corner_skews, key=self.corner_skews.__getitem__)

    def as_row(self) -> dict[str, float | int | str]:
        """Flat dictionary used by tables and benchmark output."""
        row: dict[str, float | int | str] = {
            "design": self.design,
            "flow": self.flow,
            "latency_ps": round(self.latency, 3),
            "skew_ps": round(self.skew, 3),
            "buffers": self.buffers,
            "ntsvs": self.ntsvs,
            "wirelength_um": round(self.wirelength, 1),
            "back_wl_um": round(self.back_wirelength, 1),
            "runtime_s": round(self.runtime, 3),
        }
        if self.corner_skews:
            for corner, skew in self.corner_skews.items():
                row[f"skew_{corner}_ps"] = round(skew, 3)
            row["worst_skew_ps"] = round(self.worst_skew, 3)
            row["worst_latency_ps"] = round(self.worst_latency, 3)
            row["worst_corner"] = self.worst_skew_corner
        return row

    def ratio_to(self, reference: "ClockTreeMetrics") -> dict[str, float]:
        """Return ``reference / self`` ratios (how much better *self* is).

        This matches the paper's convention in Table III, where the "Ratio"
        row normalises every method against "Ours" (so 2.223x means the other
        method's latency is 2.223 times larger).
        """
        def _ratio(a: float, b: float) -> float:
            if b == 0:
                return float("inf") if a > 0 else 1.0
            return a / b

        return {
            "latency": _ratio(reference.latency, self.latency),
            "skew": _ratio(reference.skew, self.skew),
            "buffers": _ratio(reference.buffers, self.buffers),
            "ntsvs": _ratio(reference.ntsvs, self.ntsvs),
            "wirelength": _ratio(reference.wirelength, self.wirelength),
            "runtime": _ratio(reference.runtime, self.runtime),
        }


def evaluate_tree(
    arrays: DesignArrays,
    pdk: Pdk,
    design: str = "",
    flow: str = "",
    runtime: float = 0.0,
    engine: str | None = None,
    corners: CornerSet | Scenario | str | None = None,
    timing_engine: "VectorizedElmoreEngine | None" = None,
) -> ClockTreeMetrics:
    """Run the consistent evaluation of the paper on a synthesised design.

    ``engine`` selects the timing engine by factory name (``"vectorized"``
    by default, ``"reference"`` for differential checks).  ``corners`` adds a
    multi-corner sign-off on top of the nominal columns: per-corner skews and
    latencies are computed in one batched pass (vectorized engine) or one
    per-corner loop (reference engine) and attached to the metrics.

    ``arrays`` is a :class:`~repro.ir.design.DesignArrays`: counts and
    per-side wirelength reduce over its rows, and either timing engine
    analyses those rows.  An object
    ``ClockTree`` raises a ``TypeError``; compile it with
    ``DesignArrays.from_clock_tree(tree)``.

    ``timing_engine`` reuses an already-compiled engine instead of creating
    one (the serve tier's warm path: repeated evaluations of a long-lived
    design go through the engine's incremental dirty-cone update instead of
    a fresh compile).  The caller owns corner consistency: the instance's
    corner batch is what the per-corner columns report.
    """
    if not isinstance(arrays, DesignArrays):
        raise TypeError(
            "evaluate_tree scores a DesignArrays; compile object trees with "
            "DesignArrays.from_clock_tree(tree)"
        )
    if timing_engine is None:
        timing_engine = create_engine(pdk, engine, corners=corners)
    # The metrics are scalars: no slews, so a warm engine never re-propagates
    # them on its incremental path.
    timing = timing_engine.analyze(arrays, with_slew=False)
    corner_skews: dict[str, float] = {}
    corner_latencies: dict[str, float] = {}
    if len(timing_engine.corners) > 1:
        # One analyze_corners pass yields both dicts (this matters for the
        # reference engine, whose per-corner loop is a full analysis each).
        for name, result in timing_engine.analyze_corners(
            arrays, with_slew=False
        ).items():
            corner_skews[name] = result.skew
            corner_latencies[name] = result.latency
    front_wl = arrays.wirelength(Side.FRONT)
    back_wl = arrays.wirelength(Side.BACK)
    _nodes, sinks, buffers, ntsvs = arrays.counts()
    return ClockTreeMetrics(
        design=design,
        flow=flow,
        latency=timing.latency,
        skew=timing.skew,
        buffers=buffers,
        ntsvs=ntsvs,
        wirelength=front_wl + back_wl,
        front_wirelength=front_wl,
        back_wirelength=back_wl,
        runtime=runtime,
        sinks=sinks,
        corner_skews=corner_skews,
        corner_latencies=corner_latencies,
    )
