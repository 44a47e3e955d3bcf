"""``repro.ir`` — the persistent array IR of the end-to-end flow.

:class:`DesignArrays` is the struct-of-arrays design representation that
flows through every construction stage, and the one both timing engines
read; :mod:`repro.ir.stages` wraps the stages in the uniform
:class:`~repro.ir.stages.Stage` protocol the IR flow pipeline runs.

Only the design container is imported eagerly here: the stage pipeline
imports routing/insertion/refinement/timing, which themselves import
``repro.ir.design`` — keeping this package root light avoids the cycle.
"""

from repro.ir.design import DesignArrays

__all__ = ["DesignArrays"]
