"""Wire protocol of ``dscts serve``: newline-delimited JSON requests/replies.

One request per line, one reply per line, over TCP or stdin.  A request is a
JSON object with an ``op`` field and optional ``id`` (echoed verbatim in the
reply so pipelining clients can match answers to questions):

==============  =============================================================
``build``       build (or fetch from the session cache) a design:
                ``design`` is a benchmark id (``"C4"``, with optional
                ``scale``) or an inline net ``{"name", "source": {"x","y"},
                "sinks": [{"name","x","y","cap"}, ...]}``; optional
                ``corners`` spec string.  Replies with the session ``key``,
                ``cached`` flag, ``fingerprint``, the metrics row, and build
                diagnostics.  A fresh build reports its flow's metrics; a
                cached one reports the session's committed state, the row
                a ``query`` gives (plus the build's ``runtime_s``), so its
                metrics always match its ``fingerprint``.
``what_if``     apply hypothetical ``edits`` to a cached ``session`` and
                reply with the re-evaluated metrics row; ``commit`` (default
                false) keeps the edits, otherwise they are reverted after
                measuring.  Optional ``corners`` re-times the same tree under
                a different corner set (a corner swap, not a rebuild).
``query``       the metrics row of a cached ``session`` without edits
                (optionally under a swapped ``corners`` set).
``sessions``    list cached session keys and per-session stats.
``evict``       drop ``session`` from the cache.
``ping``        liveness probe.
``shutdown``    stop the server after replying: replies already being
                computed are finished, idle connections are closed.
==============  =============================================================

Replies are ``{"id": ..., "ok": true, "result": {...}}`` or ``{"id": ...,
"ok": false, "error": {"type", "message", ...}}``.  Typed flow errors keep
their fields: a :class:`~repro.guard.GuardError` reply carries ``stage`` /
``anomaly`` / ``fingerprint``, a :class:`~repro.parallel.ParallelError`
reply carries ``stage`` / ``task`` / ``attempts`` / ``cause`` — the serve
loop surfaces them per request instead of swallowing them (the same
never-catch rule the CLI follows; see :mod:`repro.guard.policy`).

Replies are encoded canonically (sorted keys, no whitespace) so an answer's
bytes depend only on its content — the byte-identity contract the warm
``what_if`` path is pinned against.
"""

from __future__ import annotations

import json
import math
from typing import Any

from repro.guard.policy import GuardError
from repro.parallel import ParallelError

#: Every operation the request loop dispatches.
KNOWN_OPS: tuple[str, ...] = (
    "build",
    "what_if",
    "query",
    "sessions",
    "evict",
    "ping",
    "shutdown",
)

#: What-if edit kinds the session applies (``rewire`` aliases ``retarget``).
EDIT_KINDS: tuple[str, ...] = ("insert_buffer", "retarget", "rewire")


class ProtocolError(ValueError):
    """A malformed request: bad JSON, wrong shape, or an unknown operation."""


class RequestTooLarge(ProtocolError):
    """A request line longer than the server's read limit (discarded unread)."""


class SessionError(KeyError):
    """A request referenced a session key the cache does not hold."""

    def __str__(self) -> str:  # KeyError reprs its argument; keep it readable
        return self.args[0] if self.args else ""


def finite_number(value: Any, field: str) -> float:
    """``float(value)``, or a :class:`ProtocolError` naming ``field`` when it
    is not a finite number (NaN and infinities poison every later reply)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ProtocolError(f"{field} must be a finite number, got {value!r}")
    return number


def decode_request(line: str) -> dict[str, Any]:
    """Parse one request line into a validated request dict."""
    text = line.strip()
    if not text:
        raise ProtocolError("empty request line")
    try:
        request = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {list(KNOWN_OPS)}"
        )
    return request


def ok_reply(request_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_reply(request_id: Any, exc: BaseException) -> dict[str, Any]:
    """The structured error reply for ``exc`` (typed fields preserved).

    Guard and parallel errors must never be caught-and-swallowed: this is
    the one sanctioned handler, and it *surfaces* the error — type, message,
    and every typed field — to the client that owns the request.
    """
    error: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, GuardError):
        error.update(
            stage=exc.stage, anomaly=exc.anomaly, fingerprint=exc.fingerprint
        )
    elif isinstance(exc, ParallelError):
        error.update(
            stage=exc.stage, task=exc.task, attempts=exc.attempts, cause=exc.cause
        )
    return {"id": request_id, "ok": False, "error": error}


def encode_reply(reply: dict[str, Any]) -> str:
    """Canonical one-line encoding (sorted keys — byte-stable by content)."""
    return json.dumps(reply, sort_keys=True, separators=(",", ":"))
