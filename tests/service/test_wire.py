"""Wire-protocol tests: JSON-lines over TCP and unix sockets.

Malformed input must produce one error event and leave the connection
usable — the service front door cannot be wedged by a bad client.
"""

from __future__ import annotations

import asyncio
import gc
import json

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
