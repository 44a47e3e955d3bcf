"""``dscts serve``: a long-lived, cross-design CTS service.

The serve tier keeps built designs warm: each successful build becomes a
:class:`~repro.serve.session.DesignSession` (the persistent design arrays
plus compiled timing-engine state) registered under its canonical
:func:`~repro.guard.validation.design_cache_key`, and subsequent ``what_if``
requests ride the engine's incremental dirty-cone path instead of
re-running the flow.  See :mod:`repro.serve.protocol` for the wire format.
"""

from repro.serve.protocol import (
    EDIT_KINDS,
    KNOWN_OPS,
    ProtocolError,
    RequestTooLarge,
    SessionError,
    decode_request,
    encode_reply,
    error_reply,
    ok_reply,
)
from repro.serve.server import CtsServer
from repro.serve.session import (
    DesignSession,
    SessionCache,
    apply_edit,
    build_session,
    one_shot_reply,
)

__all__ = [
    "EDIT_KINDS",
    "KNOWN_OPS",
    "ProtocolError",
    "RequestTooLarge",
    "SessionError",
    "decode_request",
    "encode_reply",
    "error_reply",
    "ok_reply",
    "CtsServer",
    "DesignSession",
    "SessionCache",
    "apply_edit",
    "build_session",
    "one_shot_reply",
]
