"""Timing analysis results for a synthesised clock tree."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


def _owned(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """A read-only float64 copy the result owns."""
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


class TimingResult:
    """Arrival times of every sink plus the derived clock-tree metrics.

    A result holds an immutable tuple of sink names and float64 arrays of
    their arrivals (and slews) that it owns: it keeps no engine state and no
    design, so it pickles, and a later edit or ``restore()`` of the design
    it timed never changes it.

    :attr:`latency`, :attr:`min_arrival`, :attr:`skew`, :attr:`max_slew`
    and ``summary()["sinks"]`` read the arrays, so a non-finite arrival
    propagates into them (a NaN arrival gives a NaN latency).  The name-keyed
    :attr:`arrivals` / :attr:`slews` dicts are built on first access and
    cached; treat them as read-only, since the reductions never read them.
    When two sinks share a name, the dict keeps the last one while the
    reductions cover both.

    Build a result from dicts (``TimingResult(arrivals=..., slews=...)``,
    as the reference engine does) or from arrays with :meth:`from_arrays`
    (the vectorized engine).

    Attributes:
        arrivals: sink name -> arrival time (ps) measured from the clock root.
        latency: maximum sink arrival time (ps).
        skew: difference between the maximum and minimum sink arrivals (ps).
        slews: sink name -> transition time at the sink (ps); empty when slew
            analysis was not requested.
    """

    __slots__ = ("_names", "_arrival", "_slew_names", "_slew", "_arrivals", "_slews")

    def __init__(
        self,
        arrivals: Mapping[str, float],
        slews: Mapping[str, float] | None = None,
    ) -> None:
        slews = slews or {}
        self._init(
            tuple(arrivals),
            list(arrivals.values()),
            tuple(slews),
            list(slews.values()),
        )

    @classmethod
    def from_arrays(
        cls,
        names: tuple[str, ...],
        arrivals: Sequence[float] | np.ndarray,
        slews: Sequence[float] | np.ndarray | None = None,
    ) -> "TimingResult":
        """A result over ``names`` with their ``arrivals`` (and ``slews``).

        The arrays are copied; ``slews`` (when given) lines up with
        ``names`` like ``arrivals`` does.
        """
        result = cls.__new__(cls)
        if slews is None:
            result._init(names, arrivals, (), ())
        else:
            result._init(names, arrivals, names, slews)
        return result

    def _init(self, names, arrivals, slew_names, slews) -> None:
        self._names = tuple(names)
        self._arrival = _owned(arrivals)
        self._slew_names = tuple(slew_names)
        self._slew = _owned(slews)
        self._arrivals: dict[str, float] | None = None
        self._slews: dict[str, float] | None = None
        if not self._names:
            raise ValueError("a timing result needs at least one sink arrival")
        if self._arrival.shape != (len(self._names),) or self._slew.shape != (
            len(self._slew_names),
        ):
            raise ValueError("timing result names and values differ in length")

    def __getstate__(self):
        return (self._names, self._arrival, self._slew_names, self._slew)

    def __setstate__(self, state) -> None:
        self._init(*state)  # the dicts are rebuilt on access

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arrivals == other.arrivals and self.slews == other.slews

    def __repr__(self) -> str:
        return (
            f"TimingResult(sinks={len(self._names)}, latency={self.latency!r}, "
            f"skew={self.skew!r})"
        )

    # ---------------------------------------------------------------- views
    @property
    def sink_names(self) -> tuple[str, ...]:
        """Sink names, in the order of :attr:`arrival_array`."""
        return self._names

    @property
    def arrival_array(self) -> np.ndarray:
        """Read-only float64 arrivals (ps), one per :attr:`sink_names` entry."""
        return self._arrival

    @property
    def arrivals(self) -> dict[str, float]:
        if self._arrivals is None:
            self._arrivals = dict(zip(self._names, self._arrival.tolist()))
        return self._arrivals

    @property
    def slews(self) -> dict[str, float]:
        if self._slews is None:
            self._slews = dict(zip(self._slew_names, self._slew.tolist()))
        return self._slews

    # ----------------------------------------------------------- reductions
    @property
    def latency(self) -> float:
        return float(self._arrival.max())

    @property
    def min_arrival(self) -> float:
        return float(self._arrival.min())

    @property
    def skew(self) -> float:
        return self.latency - self.min_arrival

    @property
    def max_slew(self) -> float:
        return float(self._slew.max()) if self._slew.size else 0.0

    def slowest_sinks(self, count: int) -> list[tuple[str, float]]:
        """Return the ``count`` sinks with the largest arrival times."""
        ranked = sorted(self.arrivals.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:count]

    def fastest_sinks(self, count: int) -> list[tuple[str, float]]:
        """Return the ``count`` sinks with the smallest arrival times."""
        ranked = sorted(self.arrivals.items(), key=lambda kv: kv[1])
        return ranked[:count]

    def skew_violates(self, fraction_of_latency: float) -> bool:
        """True when skew exceeds ``fraction_of_latency`` x latency.

        This is the trigger condition of the paper's skew refinement step
        (Section III-D, p% of the maximum latency).
        """
        if not 0 < fraction_of_latency <= 1:
            raise ValueError("fraction must be in (0, 1]")
        return self.skew > fraction_of_latency * self.latency

    def summary(self) -> dict[str, float]:
        """Return a compact dictionary for logging and reports."""
        return {
            "latency_ps": round(self.latency, 3),
            "skew_ps": round(self.skew, 3),
            "min_arrival_ps": round(self.min_arrival, 3),
            "sinks": float(len(self._names)),
            "max_slew_ps": round(self.max_slew, 3),
        }
