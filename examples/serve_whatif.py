#!/usr/bin/env python3
"""``dscts serve`` walkthrough: one server, one client, warm what-ifs.

Spawns ``dscts serve`` as a subprocess on an ephemeral TCP port, waits for
its ``serving on host:port`` discovery line, and drives the full request
loop over one socket:

1. ``build`` a small benchmark — the flow runs once and the result becomes
   a cached :class:`~repro.serve.session.DesignSession`;
2. a second ``build`` of the same design — answered from the session cache
   (``cached: true``), no flow run;
3. three ``what_if`` requests — buffer inserts and a corner swap, each
   answered warm through the timing engine's incremental dirty-cone path
   and reverted after measuring;
4. one malformed request — the server replies with a structured
   ``ProtocolError`` instead of dying (the never-swallow error contract) —
   and one committed buffer insert at ``x = NaN``, rejected with a
   ``ProtocolError`` before it touches the session, whose next ``query``
   still reports the build's fingerprint;
5. one request line longer than ``MAX_REQUEST_BYTES`` — the server discards
   it, replies with a structured ``RequestTooLarge`` error, and answers the
   next request on the same connection;
6. ``shutdown`` — the server replies, stops accepting, and exits cleanly.

The script asserts every reply shape and the server's clean exit, so CI
runs it as the serve smoke job.

Usage::

    PYTHONPATH=src python examples/serve_whatif.py
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.server import MAX_REQUEST_BYTES

REPO_ROOT = Path(__file__).resolve().parent.parent


def start_server() -> tuple[subprocess.Popen, str, int]:
    """Spawn ``dscts serve`` and wait for its discovery line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("serving on "):
        proc.kill()
        raise RuntimeError(f"unexpected server banner: {line!r}")
    host, port = line.removeprefix("serving on ").rsplit(":", 1)
    return proc, host, int(port)


def main() -> int:
    proc, host, port = start_server()
    print(f"server up on {host}:{port}")
    try:
        with socket.create_connection((host, port), timeout=120) as sock:
            stream = sock.makefile("rw", encoding="utf-8")

            def rpc(payload: str | dict) -> dict:
                text = payload if isinstance(payload, str) else json.dumps(payload)
                stream.write(text + "\n")
                stream.flush()
                return json.loads(stream.readline())

            # 1. Cold build: the flow runs once, the session is cached.
            start = time.perf_counter()
            built = rpc({"op": "build", "id": 1, "design": "C4", "scale": 0.05})
            cold_s = time.perf_counter() - start
            assert built["ok"], built
            session = built["result"]["session"]
            skew = built["result"]["metrics"]["skew_ps"]
            print(f"built {built['result']['design']} in {cold_s * 1e3:.0f} ms "
                  f"(skew {skew} ps, session {session[:12]}...)")
            assert built["result"]["cached"] is False

            # 2. Same design again: a cache hit, no flow run.
            again = rpc({"op": "build", "id": 2, "design": "C4", "scale": 0.05})
            assert again["result"]["cached"] is True
            assert again["result"]["session"] == session
            print("second build answered from the session cache")

            # 3. Warm what-ifs: buffer inserts and a corner swap.
            what_ifs = [
                {"op": "what_if", "id": 3, "session": session,
                 "edits": [{"kind": "insert_buffer", "node": "ff_3"}]},
                {"op": "what_if", "id": 4, "session": session,
                 "edits": [{"kind": "insert_buffer", "node": "ff_11"},
                           {"kind": "insert_buffer", "node": "ff_23"}]},
                {"op": "what_if", "id": 5, "session": session,
                 "edits": [{"kind": "insert_buffer", "node": "ff_3"}],
                 "corners": "tt,ss,ff"},
            ]
            for request in what_ifs:
                start = time.perf_counter()
                reply = rpc(request)
                warm_s = time.perf_counter() - start
                assert reply["ok"], reply
                result = reply["result"]
                label = ",".join(result["corners"])
                print(f"what_if #{request['id']}: {result['edits']} edit(s) "
                      f"under [{label}] -> skew {result['metrics']['skew_ps']} ps "
                      f"in {warm_s * 1e3:.1f} ms (reverted)")

            # 4. A malformed request gets a structured error, not a dead server.
            broken = rpc("this is not json")
            assert broken["ok"] is False
            assert broken["error"]["type"] == "ProtocolError"
            print(f"malformed request -> {broken['error']['type']} "
                  f"({broken['error']['message'][:40]}...); server still up")
            assert rpc({"op": "ping", "id": 6})["result"]["pong"] is True
            poisoned = rpc({"op": "what_if", "id": 7, "session": session,
                            "commit": True,
                            "edits": [{"kind": "insert_buffer", "node": "ff_3",
                                       "x": float("nan")}]})
            assert poisoned["ok"] is False, poisoned
            assert poisoned["error"]["type"] == "ProtocolError", poisoned
            queried = rpc({"op": "query", "id": 8, "session": session})
            assert queried["result"]["fingerprint"] == built["result"]["fingerprint"]
            print(f"committed NaN buffer -> {poisoned['error']['type']}; "
                  "session fingerprint unchanged")

            # 5. An oversized line is discarded and answered, not fatal.
            oversized = json.dumps({"op": "ping", "id": 9,
                                    "pad": "x" * (MAX_REQUEST_BYTES + 1)})
            start = time.perf_counter()
            too_large = rpc(oversized)
            assert too_large["ok"] is False and too_large["id"] is None
            assert too_large["error"]["type"] == "RequestTooLarge"
            print(f"{len(oversized) / 2**20:.0f} MiB request -> "
                  f"{too_large['error']['type']} in "
                  f"{(time.perf_counter() - start) * 1e3:.0f} ms; server still up")
            assert rpc({"op": "ping", "id": 10})["result"]["pong"] is True

            # 6. Clean shutdown: reply first, then stop.
            assert rpc({"op": "shutdown", "id": 11})["result"]["stopping"] is True
    finally:
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise RuntimeError("server did not exit after shutdown")
    assert code == 0, f"server exited {code}: {proc.stderr.read()}"
    print("server exited cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
