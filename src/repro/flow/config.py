"""Configuration of the end-to-end CTS flows.

This module also owns the one shared definition of *backend resolution*.
Every two-engine subsystem (timing engines, insertion-DP backends, DME
routing backends) exposes the same four surfaces with the same precedence:

    explicit argument > config field (the CLI flags feed this) >
    environment variable > built-in default

:class:`BackendChoice` implements that rule once; the per-subsystem
``resolve_*`` helpers in :mod:`repro.timing.factory`,
:mod:`repro.insertion.frontier`, and :mod:`repro.routing.dme_arrays` all
delegate here so the precedence can never drift between subsystems.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace

from repro.insertion.moes import MoesWeights
from repro.insertion.patterns import InsertionMode
from repro.tech.corners import CornerSet


@dataclass(frozen=True)
class BackendChoice:
    """One two-engine backend knob and its shared resolution rule.

    Attributes:
        kind: human-readable knob name used in error messages
            (e.g. ``"timing engine"``).
        env_var: environment variable consulted when no explicit or config
            value is given (e.g. ``REPRO_TIMING_ENGINE``).
        names: the valid backend names.
        default: the built-in default backend.
    """

    kind: str
    env_var: str
    names: tuple[str, ...]
    default: str

    def default_name(self) -> str:
        """The backend used when nothing was chosen (env override included).

        An empty environment value counts as unset so CI matrix entries can
        pass the variable through unconditionally.
        """
        return os.environ.get(self.env_var) or self.default

    def resolve(self, *candidates: str | None) -> str:
        """Resolve the first non-None candidate, else env var, else default.

        Callers list their candidates in precedence order (explicit argument
        first, then the config field); the environment variable and the
        built-in default are consulted only when every candidate is None.
        The resolved name is validated against :attr:`names`.
        """
        name = next((c for c in candidates if c is not None), None)
        if name is None:
            name = self.default_name()
        if name not in self.names:
            raise ValueError(
                f"unknown {self.kind} {name!r}; expected one of {self.names}"
            )
        return name


#: The three two-engine knobs of the library.  The per-subsystem modules
#: mirror ``names`` / ``default`` as literals (import-cycle free) and their
#: tests assert the literals agree with these definitions.
TIMING_ENGINE_CHOICE = BackendChoice(
    kind="timing engine",
    env_var="REPRO_TIMING_ENGINE",
    names=("reference", "vectorized"),
    default="vectorized",
)
DP_BACKEND_CHOICE = BackendChoice(
    kind="DP backend",
    env_var="REPRO_DP_BACKEND",
    names=("reference", "vectorized"),
    default="vectorized",
)
DME_BACKEND_CHOICE = BackendChoice(
    kind="DME backend",
    env_var="REPRO_DME_BACKEND",
    names=("reference", "vectorized"),
    default="vectorized",
)

#: The guard-policy knob of :mod:`repro.guard` rides the same resolution
#: rule (explicit argument > ``CtsConfig.backends.guard`` > ``REPRO_GUARD`` >
#: default) even though its names select behaviours rather than backends.
GUARD_POLICY_CHOICE = BackendChoice(
    kind="guard policy",
    env_var="REPRO_GUARD",
    names=("strict", "degrade", "off"),
    default="off",
)


@dataclass(frozen=True)
class BackendSelection:
    """One consolidated value for every backend knob of the flow.

    ``None`` fields fall back to the knob's environment variable, then the
    built-in default — the precedence :class:`BackendChoice` implements,
    resolved in exactly one place (:meth:`CtsConfig.resolved_backends`).

    ``representation`` is a retired knob: the flow always runs the
    :mod:`repro.ir.stages` pipeline.  The field is still accepted so older
    callers keep working, but it is ignored and warns once per process.
    """

    timing: str | None = None
    dp: str | None = None
    dme: str | None = None
    guard: str | None = None
    representation: str | None = None

    def __post_init__(self) -> None:
        if self.representation is not None:
            warn_deprecated_once(
                "BackendSelection.representation",
                "BackendSelection(representation=...) is ignored: the flow "
                "always runs the repro.ir.stages pipeline",
                stacklevel=4,
            )


@dataclass(frozen=True)
class ResolvedBackends:
    """Every backend knob resolved to a concrete name (no ``None`` left)."""

    timing: str
    dp: str
    dme: str
    guard: str


#: Deprecated surfaces that already warned this process (warn exactly once).
_DEPRECATION_WARNED: set[str] = set()


def warn_deprecated_once(key: str, message: str, stacklevel: int = 3) -> None:
    """Emit ``DeprecationWarning`` for ``key`` at most once per process."""
    if key in _DEPRECATION_WARNED:
        return
    _DEPRECATION_WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)


def _reset_deprecation_warnings() -> None:
    """Testing hook: forget which deprecated surfaces already warned."""
    _DEPRECATION_WARNED.clear()


@dataclass(frozen=True)
class CtsConfig:
    """All tunables of the double-side CTS flow, with the paper's defaults.

    Attributes:
        high_cluster_size: ``Hc`` of the dual-level clustering (3000).
        low_cluster_size: ``Lc`` of the dual-level clustering (30).
        seed: RNG seed for clustering determinism.
        hierarchical_routing: use the hierarchical DME (True) or the flat
            matching DME of Fig. 5(c) (False, for the ablation).
        moes_weights: (alpha, beta, gamma) of Eq. (3); the paper uses (1,10,1).
        selection: root-candidate selection, ``"moes"`` or ``"min_latency"``.
        max_segment_length: maximum trunk edge length (um) before splitting.
        keep_resource_diversity / max_candidates_per_side: DP pruning knobs.
        default_mode: insertion mode of every DP node unless a fanout
            threshold is supplied; the Table III "Ours" rows use full mode.
        fanout_threshold: the DSE knob — nodes with fewer downstream sinks
            than the threshold are full mode, the rest intra-side; ``None``
            leaves every node in ``default_mode``.
        skew_trigger_fraction: ``p%`` of the skew refinement trigger (0.23).
        max_refined_endpoints: ``m`` of the skew refinement (33).
        skew_strategy: ``"pad_fast"`` (Fig. 11 behaviour) or ``"shield_slow"``.
        enable_skew_refinement: disable to reproduce the "w/o SR" bars.
        corners: PVT corner set for multi-corner sign-off; ``None`` evaluates
            the nominal corner only.  The final metrics (and the DSE scoring)
            report every corner of the set, and the worst-corner skew/latency
            drive the DSE Pareto objectives.
        corner_aware_construction: when True (and ``corners`` is set), the
            construction steps themselves — insertion DP and skew refinement
            — optimise worst-corner objectives over the corner batch instead
            of nominal timing (CLI ``--corner-aware-construction``).
        nominal_skew_budget: how much nominal skew (ps) a corner-aware skew
            refinement may give away while chasing the worst corner; 0 means
            the nominal skew must never regress past its pre-refinement
            value.
        backends: the backend selection (:class:`BackendSelection`) of
            every two-engine knob: the timing engine (``timing``, CLI
            ``--engine``), the insertion-DP backend (``dp``, CLI
            ``--dp-backend``), the DME routing backend (``dme``, CLI
            ``--dme-backend``), and the guard policy (``guard``, CLI
            ``--guard``).  ``"vectorized"`` is the production backend and
            ``"reference"`` the executable spec; both build identical trees.
            The guard policy is ``"off"`` (the unguarded flow), ``"degrade"``
            (validate inputs and stage invariants, re-run an anomalous stage
            on the reference backends) or ``"strict"`` (raise
            :class:`~repro.guard.GuardError` on the first anomaly).
            ``None`` fields fall back to ``REPRO_TIMING_ENGINE`` /
            ``REPRO_DP_BACKEND`` / ``REPRO_DME_BACKEND`` / ``REPRO_GUARD``,
            then the built-in defaults (``vectorized``, ``off``).
        workers: process-level parallelism of the construction stages
            (region-parallel DME routing and DP-subtree-parallel
            insertion).  ``None`` falls back to ``REPRO_FLOW_WORKERS``,
            then 1 (serial).  Results are bit-identical to serial at every
            worker count (CLI ``--workers``).
        parallel_policy: fault-tolerance policy of the worker pools (a
            :class:`~repro.parallel.ParallelPolicy` or a spec string such as
            ``"attempts=3,timeout_s=30"`` or ``"strict"``).  ``None`` falls
            back to ``REPRO_PARALLEL_POLICY``, then the default policy
            (2 attempts, no timeout, degrade-to-serial on exhaustion).
            Recovery is bit-identical by construction: a failed shard is
            recomputed inline by the same serial spec the differential tests
            pin the parallel tier against (CLI ``--strict-parallel`` flips
            the terminal action to a raised
            :class:`~repro.parallel.ParallelError`).
    """

    high_cluster_size: int = 3000
    low_cluster_size: int = 30
    seed: int = 2025
    hierarchical_routing: bool = True
    moes_weights: MoesWeights = field(default_factory=MoesWeights)
    selection: str = "moes"
    max_segment_length: float | None = 200.0
    keep_resource_diversity: bool = False
    max_candidates_per_side: int | None = 16
    default_mode: InsertionMode = InsertionMode.FULL
    fanout_threshold: int | None = None
    skew_trigger_fraction: float = 0.23
    max_refined_endpoints: int = 33
    skew_strategy: str = "pad_fast"
    enable_skew_refinement: bool = True
    corners: CornerSet | None = None
    corner_aware_construction: bool = False
    nominal_skew_budget: float = 0.0
    backends: BackendSelection | None = None
    workers: int | None = None
    parallel_policy: object | None = None

    def resolved_backends(self) -> ResolvedBackends:
        """Resolve every backend knob to a concrete name, in one place.

        Precedence per knob: ``backends`` field > environment variable >
        built-in default (the shared :class:`BackendChoice` rule).
        """
        selection = self.backends or BackendSelection()
        return ResolvedBackends(
            timing=TIMING_ENGINE_CHOICE.resolve(selection.timing),
            dp=DP_BACKEND_CHOICE.resolve(selection.dp),
            dme=DME_BACKEND_CHOICE.resolve(selection.dme),
            guard=GUARD_POLICY_CHOICE.resolve(selection.guard),
        )

    def resolved_workers(self) -> int:
        """The construction-stage worker count, resolved to a concrete int.

        Precedence: ``workers`` field > ``REPRO_FLOW_WORKERS`` environment
        variable > 1 (serial) — the same shape as the backend knobs.
        """
        from repro.parallel import resolve_workers

        return resolve_workers(self.workers)

    def resolved_parallel_policy(self):
        """The pool fault-tolerance policy, resolved to a concrete object.

        Precedence: ``parallel_policy`` field > ``REPRO_PARALLEL_POLICY``
        environment variable > :class:`~repro.parallel.ParallelPolicy`
        defaults — the same shape as :meth:`resolved_workers`.
        """
        from repro.parallel import resolve_parallel_policy

        return resolve_parallel_policy(self.parallel_policy)

    def construction_corners(self) -> CornerSet | None:
        """The corner set construction steps optimise against (or None)."""
        if not self.corner_aware_construction:
            return None
        return self.corners

    def with_updates(self, **kwargs) -> "CtsConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def for_session(self) -> "CtsConfig":
        """Configuration for a long-lived serve session: this config.

        Every flow run keeps its persistent
        :class:`~repro.ir.design.DesignArrays`, which is what a session
        holds, so nothing needs to change.  Kept for callers that still ask.
        """
        return self

    def single_side(self) -> "CtsConfig":
        """Configuration for the front-side-only flow (no nTSV patterns)."""
        return self.with_updates(fanout_threshold=None)
