"""Clock tree timing analysis.

Implements the delay models of Section II-B of the paper:

* L-type lumped Elmore delay for wires (front- and back-side unit RC),
* buffer delay with load shielding (linear or NLDM),
* nTSV delay as a series RC element without shielding (Eq. (2)),
* PERI-style slew propagation,
* latency / skew / per-sink arrival reporting.

Two interchangeable engines implement these models:

* :class:`VectorizedElmoreEngine` — the production kernel.  It runs
  vectorized level-synchronous passes over the columns of a
  :class:`~repro.ir.design.DesignArrays`; repeated queries on an unchanged
  design are served from cache, and structural edits recorded through the
  design's edit log re-time only the dirty cone.  Its timing entries take
  designs only (compile an object tree with
  ``DesignArrays.from_clock_tree``).  Use it everywhere performance
  matters — it is the default of :func:`create_engine`.
* :class:`ElmoreTimingEngine` — the straightforward per-row reference
  implementation: scalar walks over the same design rows (it compiles a
  ``ClockTree`` it is given).  Use it for differential testing, for
  debugging suspected kernel bugs (set ``REPRO_TIMING_ENGINE=reference`` to
  switch the whole library), and as the executable specification of the
  timing model.

Both engines produce identical results to well below 1e-9 ps (only the
floating-point summation order differs); the equivalence is enforced by the
randomized differential tests in ``tests/test_timing_vectorized.py``.

Both engines also speak **multi-corner**: pass ``corners=`` to
:func:`create_engine` (or to either constructor) to evaluate a whole
:class:`~repro.tech.corners.CornerSet` — batched along a leading scenario
axis in the vectorized kernel, as a per-corner loop in the reference engine.
``tests/test_timing_corners.py`` enforces the per-corner 1e-9 equivalence.
"""

from repro.tech.corners import CornerSet, Scenario
from repro.timing.elmore import ElmoreTimingEngine
from repro.timing.analysis import TimingResult
from repro.timing.factory import (
    DEFAULT_ENGINE,
    ENGINE_NAMES,
    TimingEngine,
    create_engine,
    default_engine_name,
)
from repro.timing.slew import ramp_slew
from repro.timing.vectorized import VectorizedElmoreEngine

__all__ = [
    "CornerSet",
    "Scenario",
    "ElmoreTimingEngine",
    "VectorizedElmoreEngine",
    "TimingEngine",
    "create_engine",
    "default_engine_name",
    "DEFAULT_ENGINE",
    "ENGINE_NAMES",
    "TimingResult",
    "ramp_slew",
]
