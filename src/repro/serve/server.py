"""The ``dscts serve`` request loop: asyncio front, bounded worker bridge.

:class:`CtsServer` owns the :class:`~repro.serve.session.SessionCache` and a
synchronous :meth:`CtsServer.handle_line` that takes one request line to one
reply line.  The asyncio TCP front (:meth:`CtsServer.serve_tcp`) reads
newline-delimited requests per connection and bridges each into a bounded
``ThreadPoolExecutor`` — flow builds and what-if evaluations are CPU work
and must not block the accept loop, and the pool bound keeps a burst of
clients from piling unbounded flow runs onto the box.  ``--stdio`` mode
(:meth:`CtsServer.run_stdio`) serves the same protocol over stdin/stdout
for tests and one-off scripting.

Error contract: :meth:`handle_line` is the single sanctioned catch point.
Every failure — malformed request, unknown session, and in particular typed
:class:`~repro.guard.GuardError` / :class:`~repro.parallel.ParallelError`
flow errors — is *surfaced* to the requesting client as a structured error
reply (see :func:`repro.serve.protocol.error_reply`); nothing is swallowed
and no error takes the server down.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Any, TextIO

from repro.designs import load_design
from repro.flow.config import CtsConfig
from repro.geometry import Point
from repro.guard.validation import design_cache_key
from repro.netlist.clock import ClockNet, ClockSink, ClockSource
from repro.serve.protocol import (
    ProtocolError,
    RequestTooLarge,
    decode_request,
    encode_reply,
    error_reply,
    finite_number,
    ok_reply,
)
from repro.serve.session import SessionCache, build_session
from repro.tech.corners import CornerSet
from repro.tech.pdk import Pdk

#: Longest request line the TCP front reads, in bytes.  An inline ``build``
#: costs about 50 bytes per sink, so asyncio's default 64 KiB stream limit
#: refused inline nets past ~1.2k sinks; 16 MiB admits ~300k sinks while
#: still bounding what one connection can make the server buffer.
MAX_REQUEST_BYTES = 16 * 2**20


async def _read_request(reader: asyncio.StreamReader) -> bytes:
    """The next request line (``b""`` at end of stream).

    A line longer than the reader's limit is discarded through its newline
    (or to end of stream), so the connection stays in step with the next
    request, and :class:`RequestTooLarge` is raised for the caller to
    answer.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # a last line without a newline, or EOF
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    with contextlib.suppress(asyncio.IncompleteReadError):
        while True:
            # ``consumed`` bytes are already buffered and hold no newline.
            await reader.readexactly(consumed)
            try:
                await reader.readuntil(b"\n")
                break
            except asyncio.LimitOverrunError as exc:
                consumed = exc.consumed
    raise RequestTooLarge(f"request line longer than {MAX_REQUEST_BYTES} bytes")


def _inline_net(spec: dict[str, Any]) -> ClockNet:
    """Build a :class:`ClockNet` from an inline request design spec."""
    try:
        source_spec = spec.get("source") or {}
        source = ClockSource(
            name=str(source_spec.get("name", "clk_root")),
            location=Point(
                finite_number(source_spec.get("x", 0.0), "source x"),
                finite_number(source_spec.get("y", 0.0), "source y"),
            ),
        )
        sinks = []
        for sink in spec.get("sinks", []):
            name = str(sink["name"])
            sinks.append(
                ClockSink(
                    name=name,
                    location=Point(
                        finite_number(sink["x"], f"sink {name!r} x"),
                        finite_number(sink["y"], f"sink {name!r} y"),
                    ),
                    capacitance=finite_number(
                        sink.get("cap", 1.0), f"sink {name!r} cap"
                    ),
                )
            )
        return ClockNet(str(spec.get("name", "inline")), source, sinks)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad inline design spec: {exc}") from None


class CtsServer:
    """A long-lived cross-design CTS service over the session cache."""

    def __init__(
        self,
        pdk: Pdk,
        config: CtsConfig | None = None,
        max_sessions: int = 8,
        workers: int = 2,
    ) -> None:
        self.pdk = pdk
        self.config = config or CtsConfig()
        self.sessions = SessionCache(max_sessions)
        self.workers = max(1, int(workers))
        self.requests = 0
        self._shutdown = threading.Event()

    # ------------------------------------------------------------ requests
    def handle_line(self, line: str) -> str:
        """One request line to one canonical reply line (never raises)."""
        request_id: Any = None
        try:
            request = decode_request(line)
            request_id = request.get("id")
            reply = ok_reply(request_id, self._dispatch(request))
        except Exception as exc:  # the one sanctioned handler: every error
            # (GuardError and ParallelError included) is surfaced to the
            # client that owns the request as a typed structured reply —
            # never swallowed, and never fatal to the other sessions.
            reply = error_reply(request_id, exc)
        return encode_reply(reply)

    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        self.requests += 1
        handler = getattr(self, f"_op_{request['op']}")
        return handler(request)

    # ---------------------------------------------------------- operations
    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"pong": True, "sessions": len(self.sessions)}

    def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self._shutdown.set()
        return {"stopping": True}

    def _op_sessions(self, request: dict[str, Any]) -> dict[str, Any]:
        return self.sessions.describe()

    def _op_evict(self, request: dict[str, Any]) -> dict[str, Any]:
        key = request.get("session")
        if not isinstance(key, str):
            raise ProtocolError(f"evict needs a string session key, got {key!r}")
        return {"session": key, "evicted": self.sessions.evict(key)}

    def _request_config(self, request: dict[str, Any]) -> CtsConfig:
        corners = request.get("corners")
        if corners is None:
            return self.config
        if not isinstance(corners, str):
            raise ProtocolError(f"corners must be a spec string, got {corners!r}")
        return self.config.with_updates(corners=CornerSet.parse(corners))

    def _resolve_net(self, request: dict[str, Any]) -> tuple[ClockNet, str]:
        spec = request.get("design")
        if isinstance(spec, str):
            scale = float(request.get("scale", 1.0))
            design = load_design(spec, scale=scale, include_combinational=False)
            return design.require_clock_net(), design.name
        if isinstance(spec, dict):
            net = _inline_net(spec)
            return net, net.name
        raise ProtocolError(
            f"design must be a benchmark id or an inline spec, got {spec!r}"
        )

    def _op_build(self, request: dict[str, Any]) -> dict[str, Any]:
        net, name = self._resolve_net(request)
        config = self._request_config(request)
        key = design_cache_key(net, self.pdk, config.corners)
        session = self.sessions.get(key)
        cached = session is not None
        evicted: list[str] = []
        if session is None:
            session = build_session(self.pdk, net, config, design_name=name)
            evicted = self.sessions.put(session)
        run = session.run
        if cached:
            # Committed what-ifs may have moved the session past its build:
            # answer for the state the fingerprint names, as a query does.
            state = session.query()
            fingerprint = state["fingerprint"]
            metrics = dict(state["metrics"], runtime_s=round(run.metrics.runtime, 3))
        else:
            fingerprint = session.fingerprint()
            metrics = dict(run.metrics.as_row())
        result: dict[str, Any] = {
            "session": session.key,
            "cached": cached,
            "design": session.design_name,
            "fingerprint": fingerprint,
            "metrics": metrics,
            "diagnostics": {
                "guard": [asdict(d) for d in run.guard_diagnostics],
                "parallel": {
                    "tasks": run.parallel_tasks,
                    "events": [asdict(d) for d in run.parallel_diagnostics],
                },
            },
        }
        if evicted:
            result["evicted"] = evicted
        return result

    def _op_what_if(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self.sessions.require(request.get("session"))
        edits = request.get("edits")
        if not isinstance(edits, list):
            raise ProtocolError(f"what_if needs a list of edits, got {edits!r}")
        return session.what_if(
            edits,
            corners=request.get("corners"),
            commit=bool(request.get("commit", False)),
        )

    def _op_query(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self.sessions.require(request.get("session"))
        return session.query(corners=request.get("corners"))

    # -------------------------------------------------------------- fronts
    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Accept newline-delimited JSON clients until a shutdown request.

        Requests run on a bounded worker pool so a long flow build neither
        blocks the event loop nor admits unbounded concurrent CPU work.  A
        request line over :data:`MAX_REQUEST_BYTES` is answered with a
        ``RequestTooLarge`` error reply (``id`` null) and the connection
        reads on.

        Shutdown drains: the connection that asked for it writes its reply
        and then sets the stop event.  The listener closes, every reply
        already being computed is finished and written, and idle
        connections are closed without waiting for their clients.
        """
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="dscts-serve"
        )
        stop = asyncio.Event()
        handlers: set[asyncio.Task] = set()
        idle: set[asyncio.StreamWriter] = set()  # connections awaiting a request

        async def handle(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            task = asyncio.current_task()
            handlers.add(task)
            try:
                while not stop.is_set():
                    idle.add(writer)
                    try:
                        line = await _read_request(reader)
                    except RequestTooLarge as exc:
                        line, reply = None, encode_reply(error_reply(None, exc))
                    finally:
                        idle.discard(writer)
                    if stop.is_set() or line == b"":
                        break  # end of stream, or closed while idle at shutdown
                    if line is not None:
                        text = line.decode("utf-8", errors="replace")
                        if not text.strip():
                            continue
                        reply = await loop.run_in_executor(
                            executor, self.handle_line, text
                        )
                    writer.write(reply.encode("utf-8") + b"\n")
                    await writer.drain()
                    if self._shutdown.is_set():
                        break
            finally:
                handlers.discard(task)
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
                if self._shutdown.is_set():
                    stop.set()

        server = await asyncio.start_server(
            handle, host, port, limit=MAX_REQUEST_BYTES
        )
        bound = server.sockets[0].getsockname()
        # Single discovery line clients (and the smoke test) wait for.
        print(f"serving on {bound[0]}:{bound[1]}", flush=True)
        try:
            async with server:
                await stop.wait()
                server.close()
                # Closing an idle connection ends its pending read; busy ones
                # write the reply they are computing, then stop.  This runs
                # before ``__aexit__``: from Python 3.12.1 its ``wait_closed``
                # waits until every connection has dropped.
                for writer in list(idle):
                    writer.close()
                await asyncio.gather(*handlers, return_exceptions=True)
        finally:
            executor.shutdown(wait=True)

    def run_stdio(
        self, stdin: TextIO | None = None, stdout: TextIO | None = None
    ) -> int:
        """Serve the protocol synchronously over stdin/stdout."""
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        print("serving on stdio", file=sys.stderr, flush=True)
        for line in stdin:
            print(self.handle_line(line), file=stdout, flush=True)
            if self._shutdown.is_set():
                break
        return 0
