"""Guard policies: how the flow reacts to validation and anomaly findings.

The guarded flow supports three policies, resolved through the shared
:class:`~repro.flow.config.BackendChoice` rule (explicit argument >
``CtsConfig.backends.guard`` > ``REPRO_GUARD`` > built-in default):

``off``
    No validation, no checks, no copies — the flow behaves exactly as it
    did before the guard existed.  This is the default.
``degrade``
    Inputs are validated once at flow entry and stage invariants are checked
    after every construction stage.  When a stage's output is anomalous the
    stage is re-run through the reference backend (the executable spec the
    two-engine pattern already maintains), a :class:`GuardDiagnostic` is
    recorded on the flow result, and the flow continues.
``strict``
    Same checks, but the first anomaly raises a typed :class:`GuardError`
    naming the stage, the design fingerprint, and the offending values.

:class:`StageGuard` carries the per-run guard state — the resolved policy,
the injected faults of the test harness, and the recorded diagnostics — and
implements the check / degrade / confirm protocol the flow stages call.

Never catch :class:`GuardError` at a call site: under ``degrade`` the flow
already recovered everything recoverable, so a raised ``GuardError`` means
either a ``strict`` run doing its job or an anomaly that persists on the
reference backends — both must surface to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.guard.faults import StageFault
    from repro.ir.design import DesignArrays
    from repro.netlist.clock import ClockNet

#: Mirrors :data:`repro.flow.config.GUARD_POLICY_CHOICE` as literals
#: (import-cycle free); ``tests/test_backend_resolution.py`` asserts the
#: mirrors agree with the shared definition.
GUARD_POLICY_NAMES: tuple[str, ...] = ("strict", "degrade", "off")
GUARD_POLICY_DEFAULT = "off"


class GuardError(RuntimeError):
    """A guarded flow found an anomaly it must not silently continue past.

    Attributes:
        stage: flow stage the anomaly was detected at (``"inputs"``,
            ``"routing"``, ``"insertion"``, ``"refinement"``,
            ``"evaluation"``).
        anomaly: human-readable description of the offending values.
        fingerprint: short design fingerprint
            (:func:`repro.guard.validation.design_fingerprint`), so failures
            from long-running services can be traced back to their input.
    """

    def __init__(self, stage: str, anomaly: str, fingerprint: str = "") -> None:
        self.stage = stage
        self.anomaly = anomaly
        self.fingerprint = fingerprint
        message = f"guarded flow: {stage}: {anomaly}"
        if fingerprint:
            message = f"{message} [design {fingerprint}]"
        super().__init__(message)


@dataclass(frozen=True)
class GuardDiagnostic:
    """One recorded guard intervention on a flow result.

    Attributes:
        stage: the flow stage that was found anomalous.
        anomaly: what the guard detected in the stage's original output.
        action: what the guard did about it (currently ``"degraded"``).
        backend: backend name the stage was re-run on.
        fingerprint: the design fingerprint of the run.
    """

    stage: str
    anomaly: str
    action: str
    backend: str
    fingerprint: str


def resolve_guard_policy(*candidates: str | None) -> str:
    """Resolve the guard policy by the shared backend-resolution rule.

    Candidates are listed in precedence order (explicit argument first, then
    ``CtsConfig.backends.guard``); the ``REPRO_GUARD`` environment variable
    and the built-in default apply when every candidate is None.
    """
    from repro.flow.config import GUARD_POLICY_CHOICE

    return GUARD_POLICY_CHOICE.resolve(*candidates)


class StageGuard:
    """Per-run guard state and the check / degrade / confirm protocol.

    The flow calls, per stage:

    1. :meth:`inject` — apply the test harness's injected faults (all
       policies, including ``off``: faults simulate backend bugs, and an
       unguarded flow must exhibit them);
    2. :meth:`check` — ``False`` when the stage output is healthy or the
       guard is off; ``True`` when the stage must be degraded; raises
       :class:`GuardError` under ``strict``;
    3. after re-running the stage on the reference backend,
       :meth:`confirm` — verifies the anomaly is gone (raising when it
       persists: a reference-backend anomaly is never recoverable) and
       records the :class:`GuardDiagnostic`.
    """

    def __init__(
        self,
        policy: str,
        clock_net: "ClockNet",
        faults: Iterable["StageFault"] = (),
    ) -> None:
        if policy not in GUARD_POLICY_NAMES:
            raise ValueError(
                f"unknown guard policy {policy!r}; expected one of {GUARD_POLICY_NAMES}"
            )
        self.policy = policy
        self.clock_net = clock_net
        self.faults = tuple(faults)
        self.diagnostics: list[GuardDiagnostic] = []
        self._fingerprint: str | None = None
        self._pending: str = ""

    # ------------------------------------------------------------- queries
    @property
    def active(self) -> bool:
        """True when any checking happens at all (policy is not ``off``)."""
        return self.policy != "off"

    @property
    def degrading(self) -> bool:
        """True when anomalous stages re-run on the reference backends."""
        return self.policy == "degrade"

    @property
    def fingerprint(self) -> str:
        """The design fingerprint, computed lazily on first use."""
        if self._fingerprint is None:
            from repro.guard.validation import design_fingerprint

            self._fingerprint = design_fingerprint(self.clock_net)
        return self._fingerprint

    # ------------------------------------------------------------ protocol
    def validate_inputs(self, pdk, corners=None) -> None:
        """Validate the flow inputs once at entry (no-op when off)."""
        if not self.active:
            return
        from repro.guard.validation import validate_flow_inputs

        validate_flow_inputs(self.clock_net, pdk, corners=corners)

    def inject(self, stage: str, design: "DesignArrays") -> None:
        """Apply the injected faults registered for ``stage`` (all policies)."""
        if not self.faults:
            return
        from repro.guard.faults import apply_faults

        apply_faults(self.faults, stage, design)

    def check(
        self,
        stage: str,
        design: "DesignArrays | None",
        extra: Callable[[], str | None] | None = None,
    ) -> bool:
        """Check the stage output; True when the stage must be degraded.

        ``extra`` supplies a stage-specific anomaly probe (timing results,
        metrics) evaluated after the shared design checks; pass
        ``design=None`` for result-only stages (evaluation does not mutate
        the design, so re-probing it there would just duplicate the
        refinement check).
        Under ``strict`` an anomaly raises :class:`GuardError` instead of
        returning.
        """
        if not self.active:
            return False
        anomaly = self._anomaly(design, extra)
        if anomaly is None:
            return False
        if not self.degrading:
            raise GuardError(stage, anomaly, self.fingerprint)
        self._pending = anomaly
        return True

    def confirm(
        self,
        stage: str,
        design: "DesignArrays | None",
        extra: Callable[[], str | None] | None = None,
        backend: str = "reference",
    ) -> None:
        """Verify a degraded stage healed and record the diagnostic.

        An anomaly that survives the reference backend is not a kernel bug
        the degrade path can route around — it raises even under ``degrade``.
        """
        anomaly = self._anomaly(design, extra)
        if anomaly is not None:
            raise GuardError(
                stage,
                f"anomaly persists on the {backend} backend: {anomaly}",
                self.fingerprint,
            )
        self.diagnostics.append(
            GuardDiagnostic(
                stage=stage,
                anomaly=self._pending,
                action="degraded",
                backend=backend,
                fingerprint=self.fingerprint,
            )
        )
        self._pending = ""

    def _anomaly(
        self,
        design: "DesignArrays | None",
        extra: Callable[[], str | None] | None,
    ) -> str | None:
        from repro.guard.validation import stage_anomaly

        anomaly = stage_anomaly(design, self.clock_net) if design is not None else None
        if anomaly is None and extra is not None:
            anomaly = extra()
        return anomaly
