"""Tests of the ``dscts serve`` tier: protocol, sessions, cache, concurrency.

The load-bearing pin is byte-identity: a warm ``what_if`` answer from a
cached session must encode to exactly the bytes of the cold one-shot
equivalent (:func:`repro.serve.session.one_shot_reply`), across worker
counts.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.designs import random_sink_cloud
from repro.flow.config import CtsConfig
from repro.serve import (
    CtsServer,
    ProtocolError,
    SessionCache,
    build_session,
    decode_request,
    encode_reply,
    error_reply,
    one_shot_reply,
)
from repro.serve.protocol import SessionError
from repro.tech import asap7_backside


@pytest.fixture(scope="module")
def pdk():
    return asap7_backside()


def net_spec(net) -> dict:
    """The inline wire-protocol spec of a ClockNet."""
    return {
        "name": net.name,
        "source": {
            "name": net.source.name,
            "x": net.source.location.x,
            "y": net.source.location.y,
        },
        "sinks": [
            {"name": s.name, "x": s.location.x, "y": s.location.y, "cap": s.capacitance}
            for s in net.sinks
        ],
    }


def rpc(server: CtsServer, **request) -> dict:
    return json.loads(server.handle_line(json.dumps(request)))


class TestProtocol:
    def test_decode_rejects_bad_lines(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode_request("   \n")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_request("{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request("[1,2]")
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_request('{"op": "explode"}')

    def test_error_reply_preserves_guard_fields(self):
        from repro.guard.policy import GuardError

        exc = GuardError("insertion", "negative skew", fingerprint="abc123")
        reply = error_reply(7, exc)
        assert reply["ok"] is False
        assert reply["error"]["type"] == "GuardError"
        assert reply["error"]["stage"] == "insertion"
        assert reply["error"]["anomaly"] == "negative skew"
        assert reply["error"]["fingerprint"] == "abc123"
        assert reply["id"] == 7

    def test_error_reply_preserves_parallel_fields(self):
        from repro.parallel import ParallelError

        exc = ParallelError("routing", "region 3", 2, "ValueError: boom")
        error = error_reply(None, exc)["error"]
        assert error["type"] == "ParallelError"
        assert error["stage"] == "routing"
        assert error["task"] == "region 3"
        assert error["attempts"] == 2
        assert error["cause"] == "ValueError: boom"

    def test_encoding_is_canonical(self):
        assert (
            encode_reply({"b": 1, "a": {"d": 2, "c": 3}})
            == '{"a":{"c":3,"d":2},"b":1}'
        )


class TestBuildAndCache:
    def test_second_build_hits_cache(self, pdk):
        server = CtsServer(pdk, CtsConfig())
        spec = net_spec(random_sink_cloud(40, seed=5))
        first = rpc(server, op="build", id=1, design=spec)
        assert first["ok"], first
        assert first["result"]["cached"] is False
        assert first["result"]["metrics"]["skew_ps"] >= 0
        second = rpc(server, op="build", id=2, design=spec)
        assert second["ok"]
        assert second["result"]["cached"] is True
        assert second["result"]["session"] == first["result"]["session"]

    def test_different_corners_are_different_sessions(self, pdk):
        server = CtsServer(pdk, CtsConfig())
        spec = net_spec(random_sink_cloud(40, seed=5))
        nominal = rpc(server, op="build", id=1, design=spec)
        signoff = rpc(server, op="build", id=2, design=spec, corners="signoff")
        assert signoff["ok"], signoff
        assert nominal["result"]["session"] != signoff["result"]["session"]
        assert "skew_ss_ps" in signoff["result"]["metrics"]

    def test_lru_eviction_under_session_cap(self, pdk):
        server = CtsServer(pdk, CtsConfig(), max_sessions=2)
        keys = []
        for seed in (1, 2, 3):
            spec = net_spec(random_sink_cloud(30, seed=seed))
            reply = rpc(server, op="build", design=spec)
            assert reply["ok"], reply
            keys.append(reply["result"]["session"])
        # The oldest session fell off the LRU end...
        assert reply["result"]["evicted"] == [keys[0]]
        listing = rpc(server, op="sessions")["result"]
        assert [s["key"] for s in listing["sessions"]] == keys[1:]
        assert listing["evictions"] == 1
        # ...and referencing it now is a structured SessionError reply.
        gone = rpc(server, op="what_if", session=keys[0], edits=[])
        assert gone["ok"] is False
        assert gone["error"]["type"] == "SessionError"

    def test_explicit_evict(self, pdk):
        server = CtsServer(pdk, CtsConfig())
        spec = net_spec(random_sink_cloud(30, seed=9))
        key = rpc(server, op="build", design=spec)["result"]["session"]
        assert rpc(server, op="evict", session=key)["result"]["evicted"] is True
        assert rpc(server, op="evict", session=key)["result"]["evicted"] is False

    def test_session_cache_requires_string_key(self):
        cache = SessionCache(2)
        with pytest.raises(ProtocolError):
            cache.require(42)
        with pytest.raises(SessionError):
            cache.require("missing")


EDITS = [{"kind": "insert_buffer", "node": "ff_3"}]


class TestWhatIf:
    def test_warm_reply_byte_identical_to_cold(self, pdk, monkeypatch):
        """The acceptance pin: warm what_if == cold one-shot, byte for byte.

        workers=2 exercises the parallel tier.
        """
        monkeypatch.setenv("REPRO_FLOW_WORKERS", "2")
        net = random_sink_cloud(80, seed=7)
        session = build_session(pdk, net, CtsConfig())
        warm = session.what_if(EDITS)
        cold = one_shot_reply(pdk, net, CtsConfig(), edits=EDITS)
        assert encode_reply(warm) == encode_reply(cold)

    def test_what_if_reverts_unless_committed(self, pdk):
        net = random_sink_cloud(40, seed=8)
        session = build_session(pdk, net, CtsConfig())
        base = session.query()
        trial = session.what_if(EDITS)
        assert trial["metrics"]["buffers"] == base["metrics"]["buffers"] + 1
        # The trial was reverted: a fresh query reproduces the base bytes.
        assert encode_reply(session.query()) == encode_reply(base)
        committed = session.what_if(EDITS, commit=True)
        assert committed["committed"] is True
        after = session.query()
        assert after["metrics"]["buffers"] == base["metrics"]["buffers"] + 1
        assert session.edit_log == EDITS

    def test_committed_session_still_matches_cold_replay(self, pdk):
        net = random_sink_cloud(40, seed=8)
        session = build_session(pdk, net, CtsConfig())
        session.what_if([{"kind": "insert_buffer", "node": "ff_1"}], commit=True)
        warm = session.what_if(EDITS)
        cold = one_shot_reply(
            pdk,
            net,
            CtsConfig(),
            edits=EDITS,
            committed=[{"kind": "insert_buffer", "node": "ff_1"}],
        )
        assert encode_reply(warm) == encode_reply(cold)

    def test_retarget_round_trip(self, pdk):
        net = random_sink_cloud(40, seed=4)
        session = build_session(pdk, net, CtsConfig())
        base = encode_reply(session.query())
        root = session.design.names[0]
        moved = session.what_if(
            [{"kind": "retarget", "node": "ff_2", "new_parent": root}]
        )
        assert moved["edits"] == 1
        assert encode_reply(session.query()) == base

    def test_corner_swap_rides_the_same_session(self, pdk):
        net = random_sink_cloud(40, seed=6)
        session = build_session(pdk, net, CtsConfig())
        nominal = session.what_if(EDITS)
        swapped = session.what_if(EDITS, corners="tt,ss,ff")
        assert "skew_ss_ps" not in nominal["metrics"]
        assert swapped["corners"] == ["tt", "ss", "ff"]
        assert "skew_ss_ps" in swapped["metrics"]
        # The swap is an evaluation-only change: the design was reverted.
        assert encode_reply(session.what_if(EDITS)) == encode_reply(nominal)

    def test_warm_path_is_incremental(self, pdk):
        net = random_sink_cloud(60, seed=2)
        session = build_session(pdk, net, CtsConfig())
        session.query()  # first evaluation compiles the engine
        engine = session._engine(session._corner_set(None))
        compiles = engine.full_compiles
        for sink in ("ff_3", "ff_17", "ff_42"):
            session.what_if([{"kind": "insert_buffer", "node": sink}])
        assert engine.full_compiles == compiles
        assert engine.incremental_updates > 0

    def test_bad_edits_surface_and_leave_design_intact(self, pdk):
        net = random_sink_cloud(30, seed=3)
        session = build_session(pdk, net, CtsConfig())
        base = encode_reply(session.query())
        with pytest.raises(ProtocolError, match="unknown design node"):
            session.what_if(
                [
                    {"kind": "insert_buffer", "node": "ff_1"},
                    {"kind": "insert_buffer", "node": "missing"},
                ]
            )
        with pytest.raises(ProtocolError, match="unknown edit kind"):
            session.what_if([{"kind": "delete_everything"}])
        # Moving a node under its own subtree must be rejected as a cycle:
        # retarget the grandparent of a sink under the sink's parent.
        design = session.design
        parent = int(design.parent_row[design.name_to_row["ff_1"]])
        grandparent = int(design.parent_row[parent])
        assert grandparent > 0, "net too shallow for the cycle check"
        with pytest.raises(ProtocolError, match="cycle"):
            session.what_if(
                [
                    {
                        "kind": "retarget",
                        "node": design.names[grandparent],
                        "new_parent": design.names[parent],
                    }
                ]
            )
        # Every failure rolled the applied prefix back.
        assert encode_reply(session.query()) == base


class TestServerErrors:
    def test_malformed_and_unknown_requests_get_error_replies(self, pdk):
        server = CtsServer(pdk, CtsConfig())
        bad = json.loads(server.handle_line("this is not json"))
        assert bad["ok"] is False and bad["error"]["type"] == "ProtocolError"
        unknown = rpc(server, op="what_if", session="nope", edits=[])
        assert unknown["error"]["type"] == "SessionError"
        assert "nope" in unknown["error"]["message"]
        badspec = rpc(server, op="build", design=123)
        assert badspec["error"]["type"] == "ProtocolError"

    def test_flow_error_is_structured_not_fatal(self, pdk):
        """A failing build surfaces as a reply; the server keeps serving."""
        server = CtsServer(pdk, CtsConfig())
        empty = rpc(server, op="build", design={"name": "empty", "sinks": []})
        assert empty["ok"] is False
        assert rpc(server, op="ping")["result"]["pong"] is True

    def test_guard_error_reply_carries_typed_fields(self, pdk):
        """GuardError is surfaced with stage/anomaly/fingerprint, not swallowed."""
        from repro.guard.policy import GuardError

        server = CtsServer(pdk, CtsConfig())
        spec = net_spec(random_sink_cloud(30, seed=1))
        key = rpc(server, op="build", design=spec)["result"]["session"]
        session = server.sessions.require(key)

        def explode(*args, **kwargs):
            raise GuardError("evaluation", "injected anomaly", fingerprint="f00")

        session._cts.evaluate_design = explode
        reply = rpc(server, op="what_if", session=key, edits=[])
        assert reply["ok"] is False
        assert reply["error"]["type"] == "GuardError"
        assert reply["error"]["stage"] == "evaluation"
        assert reply["error"]["anomaly"] == "injected anomaly"
        assert reply["error"]["fingerprint"] == "f00"


class TestConcurrency:
    def test_concurrent_clients_same_and_different_designs(self, pdk):
        """N threads hammer one server: shared sessions stay consistent."""
        server = CtsServer(pdk, CtsConfig(), max_sessions=4, workers=4)
        specs = [net_spec(random_sink_cloud(30, seed=s)) for s in (1, 2)]
        keys = [rpc(server, op="build", design=s)["result"]["session"] for s in specs]
        baselines = {
            key: encode_reply(rpc(server, op="query", session=key)["result"])
            for key in keys
        }
        failures: list[str] = []

        def client(worker: int) -> None:
            key = keys[worker % len(keys)]
            for i in range(5):
                reply = rpc(
                    server,
                    op="what_if",
                    session=key,
                    edits=[{"kind": "insert_buffer", "node": f"ff_{(worker + i) % 30}"}],
                )
                if not reply["ok"]:
                    failures.append(str(reply))
            after = rpc(server, op="query", session=key)
            if encode_reply(after["result"]) != baselines[key]:
                failures.append(f"session {key} drifted")

        threads = [threading.Thread(target=client, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []

    def test_tcp_round_trip(self, pdk):
        """A real asyncio TCP server answers pipelined clients."""
        import asyncio
        import builtins

        server = CtsServer(pdk, CtsConfig(), workers=2)

        # Run serve_tcp in a thread and scrape the announced ephemeral port
        # from the discovery line (the same contract clients rely on).

        printed: list[str] = []
        original_print = builtins.print

        def capture(*args, **kwargs):
            printed.append(" ".join(str(a) for a in args))
            original_print(*args, **kwargs)

        builtins.print = capture
        thread = threading.Thread(
            target=lambda: asyncio.run(server.serve_tcp("127.0.0.1", 0)),
            daemon=True,
        )
        thread.start()
        try:
            deadline = time.time() + 10
            port = None
            while time.time() < deadline and port is None:
                for line in printed:
                    if line.startswith("serving on"):
                        port = int(line.rsplit(":", 1)[1])
                time.sleep(0.01)
            assert port, "server never announced its port"
        finally:
            builtins.print = original_print

        spec = net_spec(random_sink_cloud(30, seed=11))
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            stream = sock.makefile("rw", encoding="utf-8")
            requests = [
                {"op": "build", "id": 1, "design": spec},
                {"op": "ping", "id": 2},
                {"op": "shutdown", "id": 3},
            ]
            for request in requests:
                stream.write(json.dumps(request) + "\n")
            stream.flush()
            replies = [json.loads(stream.readline()) for _ in requests]
        assert [r["id"] for r in replies] == [1, 2, 3]
        assert all(r["ok"] for r in replies)
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestCliServe:
    def test_stdio_serve_round_trip(self, pdk):
        """The packaged CLI serves the protocol over stdio."""
        spec = net_spec(random_sink_cloud(30, seed=13))
        lines = "\n".join(
            json.dumps(r)
            for r in [
                {"op": "build", "id": 1, "design": spec},
                {"op": "bogus", "id": 2},
                {"op": "shutdown", "id": 3},
            ]
        )
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio"],
            input=lines + "\n",
            capture_output=True,
            text=True,
            timeout=300,
            env={**__import__("os").environ, "PYTHONPATH": repo_src},
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines() if line]
        assert [r["ok"] for r in replies] == [True, False, True]
        assert replies[1]["error"]["type"] == "ProtocolError"

    def test_serve_flag_validation_is_one_line_error(self, capsys):
        from repro.cli import main

        assert main(["serve", "--stdio", "--max-sessions", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
