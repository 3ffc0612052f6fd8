"""Wire-protocol tests: JSON-lines over TCP and unix sockets.

Malformed input must produce one error event and leave the connection
usable — the service front door cannot be wedged by a bad client.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import tempfile

from hypothesis import given, settings, strategies as st

from repro.experiments.config import PROTOCOL_LABELS
from repro.experiments.runner import run_single
from repro.service import (
    CampaignScheduler,
    CampaignService,
    ResultStore,
    ServiceClient,
    start_server,
)
from repro.service.spec import CampaignSpec, result_record
from repro.service.wire import LINE_LIMIT

FAST = {"protocol": "mtmrp", "topology": "grid", "group_size": 10, "mac": "ideal"}


def payload(**overrides):
    return {"config": {**FAST, "seed": 3, **overrides}, "replicates": 1}


def make_service(tmp_path) -> CampaignService:
    return CampaignService(
        store=ResultStore(tmp_path / "store"), scheduler=CampaignScheduler()
    )


def port_of(server) -> int:
    return server.sockets[0].getsockname()[1]


class TestTcp:
    def test_ping_stats_and_submit_round_trip(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            async with await start_server(service) as server:
                client = await ServiceClient.connect(port=port_of(server))
                try:
                    assert (await client.ping()) == {"event": "pong"}

                    events = [ev async for ev in client.submit(payload())]
                    assert [ev["event"] for ev in events] == [
                        "accepted", "progress", "done",
                    ]
                    spec = CampaignSpec.from_payload(payload())
                    assert events[-1]["results"] == [
                        result_record(run_single(spec.configs()[0]))
                    ]

                    stats = await client.stats()
                    assert stats["event"] == "stats"
                    assert stats["service"]["requests"] == 1
                    assert stats["store"]["stores"] == 1
                    assert stats["inflight"] == 0
                finally:
                    await client.close()

        asyncio.run(main())

    def test_malformed_lines_leave_the_connection_usable(self, tmp_path):
        service = make_service(tmp_path)

        async def main():
            async with await start_server(service) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port_of(server)
                )
                try:
                    async def roundtrip(raw: bytes):
                        writer.write(raw)
                        await writer.drain()
                        return json.loads(await reader.readline())

                    ev = await roundtrip(b"this is not json\n")
                    assert ev["event"] == "error" and "malformed" in ev["message"]

                    ev = await roundtrip(b'{"op": "warp"}\n')
                    assert ev["event"] == "error" and "unknown op" in ev["message"]

                    ev = await roundtrip(
                        json.dumps(
                            {"op": "submit", "spec": {"config": {"warp": 9}}}
                        ).encode() + b"\n"
                    )
                    assert ev["event"] == "error"
                    assert "unknown config fields" in ev["message"]

                    # after three bad requests the connection still serves
                    ev = await roundtrip(b'{"op": "ping"}\n')
                    assert ev == {"event": "pong"}
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(main())


class TestUnixSocket:
    def test_ping_over_unix_socket(self, tmp_path):
        service = make_service(tmp_path)
        sock = str(tmp_path / "svc.sock")

        async def main():
            async with await start_server(service, unix_path=sock):
                client = await ServiceClient.connect(unix_path=sock)
                try:
                    assert (await client.ping()) == {"event": "pong"}
                finally:
                    await client.close()

        asyncio.run(main())

    def test_over_limit_line_gets_an_error_and_a_clean_close(self, tmp_path):
        service = make_service(tmp_path)
        sock = str(tmp_path / "svc.sock")
        reported = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: reported.append(ctx)
            )
            async with await start_server(service, unix_path=sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                try:
                    pad = "x" * (LINE_LIMIT + 6 * 1024)
                    writer.write(json.dumps({"op": "ping", "pad": pad}).encode() + b"\n")
                    await writer.drain()
                    ev = json.loads(await reader.readline())
                    assert ev["event"] == "error"
                    assert str(LINE_LIMIT) in ev["message"]
                    assert await reader.read() == b""  # closed by the server
                finally:
                    writer.close()
                    await writer.wait_closed()
                # the server itself keeps serving
                client = await ServiceClient.connect(unix_path=sock)
                try:
                    assert (await client.ping()) == {"event": "pong"}
                finally:
                    await client.close()
            gc.collect()  # surface any never-retrieved handler exception

        asyncio.run(main())
        assert reported == []


# --------------------------------------------------------------------- #
# byte-level fuzz of the request parser (unix socket)
# --------------------------------------------------------------------- #
_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_non_object = _json.filter(lambda v: not isinstance(v, dict))
#: values ``int()`` rejects: wrong types, non-numeric text, non-finite
_not_int = st.sampled_from(
    [None, "x", "", [], {}, [1], math.inf, -math.inf, math.nan]
)
#: spec payloads ``CampaignSpec.from_payload`` must reject
_bad_specs = st.one_of(
    _non_object,
    st.fixed_dictionaries({"warp": _json}),
    st.fixed_dictionaries({"config": _non_object}),
    st.fixed_dictionaries({"config": st.fixed_dictionaries({"warp": _json})}),
    st.fixed_dictionaries(
        {"config": st.fixed_dictionaries(
            {"protocol": st.text(max_size=8).filter(lambda p: p not in PROTOCOL_LABELS)}
        )}
    ),
    st.fixed_dictionaries(
        {"config": st.fixed_dictionaries(
            # the default grid has 100 nodes
            {"group_size": st.integers(max_value=0) | st.integers(min_value=100)
             | st.none() | st.text(max_size=4)}
        )}
    ),
    st.fixed_dictionaries({"replicates": st.integers(max_value=0) | _not_int}),
    st.fixed_dictionaries({"batch_seed": _not_int}),
)


def _encode_line(obj) -> bytes:
    return json.dumps(obj).encode()


_lines = st.one_of(
    st.binary(max_size=64),
    st.binary(min_size=1, max_size=32).map(lambda b: b"\xff" + b),  # invalid UTF-8
    st.text(max_size=32).map(str.encode),
    st.integers(2_000, 30_000).map(lambda n: b"[" * n),  # nested past the parser's depth
    _non_object.map(_encode_line),
    st.dictionaries(st.text(max_size=6), _json, max_size=3)
    .filter(lambda d: d.get("op") not in ("ping", "stats", "submit"))
    .map(_encode_line),
    _bad_specs.map(lambda spec: _encode_line({"op": "submit", "spec": spec})),
    st.integers(1, 4096).map(lambda k: b"x" * (LINE_LIMIT + k)),
).map(lambda line: line.replace(b"\n", b""))


@settings(max_examples=60, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=6))
def test_fuzzed_request_lines_never_wedge_the_server(lines):
    """Every line gets one reply; the server survives any byte sequence.

    A line over ``LINE_LIMIT`` gets its error and a closed connection,
    so the rest of the sequence goes out on a new one.  At the end a
    fresh connection still gets a ``pong``.
    """
    reported = []

    async def main(root: str):
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, ctx: reported.append(ctx)
        )
        service = CampaignService(
            store=ResultStore(f"{root}/store"), scheduler=CampaignScheduler()
        )
        sock = f"{root}/svc.sock"
        async with await start_server(service, unix_path=sock):
            conn = None
            try:
                for line in lines:
                    if conn is None:
                        conn = await asyncio.open_unix_connection(sock)
                    reader, writer = conn
                    writer.write(line + b"\n")
                    await writer.drain()
                    ev = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                    if len(line) > LINE_LIMIT:
                        assert ev["event"] == "error"
                        assert await asyncio.wait_for(reader.read(), 10.0) == b""
                        writer.close()
                        await writer.wait_closed()
                        conn = None
                    else:
                        assert ev["event"] in ("error", "pong", "stats"), ev
            finally:
                if conn is not None:
                    conn[1].close()
                    await conn[1].wait_closed()
            client = await ServiceClient.connect(unix_path=sock)
            try:
                assert (await asyncio.wait_for(client.ping(), 10.0)) == {"event": "pong"}
            finally:
                await client.close()
        gc.collect()  # surface any never-retrieved handler exception

    with tempfile.TemporaryDirectory() as root:
        asyncio.run(main(root))
    assert reported == []
