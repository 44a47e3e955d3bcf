"""The shared timing-engine factory.

Every flow component that needs timing (skew refinement, concurrent
insertion, evaluation, DSE, baselines) obtains its engine through
:func:`create_engine` so that the whole library can be switched between the
vectorized production kernel and the reference implementation — per call
site, per flow (``CtsConfig.backends.timing``), from the CLI (``--engine``),
or globally via the ``REPRO_TIMING_ENGINE`` environment variable (useful for
differential debugging of a whole benchmark run).

Multi-corner sign-off goes through the same factory: pass ``corners=`` (a
:class:`~repro.tech.corners.CornerSet`, a single scenario, or a spec string
like ``"tt,ss,ff"``) and the returned engine batches every corner — the
vectorized kernel in one level-synchronous pass sharing a single design
compile, the reference engine as a per-corner loop of row walks.  Both time
a :class:`~repro.ir.design.DesignArrays`.  Never hand-roll
per-corner PDK loops at call sites; the factory keeps both engines on the
same corner semantics.

The construction optimizers follow the same contract: ``ConcurrentInserter``
and ``SkewRefiner`` take ``corners=`` and resolve it through this factory,
so a corner-aware refinement scores every trial edit with one corner-batched
(incremental) pass and a corner-aware DP shares the engine's resolved corner
order for its per-candidate cost tuples.  Construction code must not build
per-corner engines in its loops.
"""

from __future__ import annotations

from repro.tech.corners import CornerSet, Scenario
from repro.tech.pdk import Pdk
from repro.timing.elmore import ElmoreTimingEngine
from repro.timing.vectorized import VectorizedElmoreEngine

#: Engine used when neither the caller nor the environment chooses one.
#: Mirrors ``repro.flow.config.TIMING_ENGINE_CHOICE`` (kept as literals here
#: because importing ``repro.flow.config`` at module scope would cycle
#: through ``repro.insertion`` back into this package).
DEFAULT_ENGINE = "vectorized"

ENGINE_NAMES = ("reference", "vectorized")

#: Any timing engine: both classes implement the same public protocol.
TimingEngine = ElmoreTimingEngine | VectorizedElmoreEngine


def default_engine_name() -> str:
    """The engine name used for ``engine=None`` (env override included)."""
    # Deferred import: repro.flow.config transitively imports repro.timing.
    from repro.flow.config import TIMING_ENGINE_CHOICE

    return TIMING_ENGINE_CHOICE.default_name()


def resolve_engine_name(engine: str | None = None) -> str:
    """Resolve an explicit/None engine name against the environment default."""
    from repro.flow.config import TIMING_ENGINE_CHOICE

    return TIMING_ENGINE_CHOICE.resolve(engine)


def create_engine(
    pdk: Pdk,
    engine: str | None = None,
    use_nldm: bool = False,
    corners: CornerSet | Scenario | str | None = None,
) -> TimingEngine:
    """Build the requested timing engine.

    Args:
        pdk: the technology to time against.
        engine: ``"vectorized"`` (default), ``"reference"``, or None to use
            the library default (overridable via ``REPRO_TIMING_ENGINE``).
        use_nldm: look buffer delays up in the NLDM table instead of the
            linear model.
        corners: operating points to evaluate — a
            :class:`~repro.tech.corners.CornerSet`, a single scenario, or a
            spec string such as ``"tt,ss,ff"``; None analyses the nominal
            corner only (the classic single-corner behaviour).
    """
    name = resolve_engine_name(engine)
    if name == "reference":
        return ElmoreTimingEngine(pdk, use_nldm=use_nldm, corners=corners)
    return VectorizedElmoreEngine(pdk, use_nldm=use_nldm, corners=corners)
