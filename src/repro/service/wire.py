"""JSON-lines wire protocol: the service over a local TCP or unix socket.

One request per line, a stream of event lines back — no framing beyond
``\\n``, no dependencies beyond asyncio, trivially scriptable::

    {"op": "ping"}                         → {"event": "pong"}
    {"op": "stats"}                        → {"event": "stats", ...}
    {"op": "submit", "spec": {...}}        → {"event": "accepted", ...}
                                             {"event": "progress", ...} xN
                                             {"event": "done", "results": [...]}

Requests on one connection are sequential (submit streams to completion
before the next line is read); clients wanting concurrent campaigns open
one connection per campaign — connections are cheap, and the service
dedupes/coalesces identical specs across all of them.  Malformed lines
or specs produce one ``{"event": "error", ...}`` line and leave the
connection usable; a line over :data:`LINE_LIMIT` bytes produces one
error line and closes the connection.

:class:`ServiceClient` is the matching asyncio client used by the test
harness, the ``serve --smoke`` campaign and any external driver.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Optional

from repro.service.core import CampaignService
from repro.service.spec import SpecError

__all__ = ["LINE_LIMIT", "start_server", "ServiceClient", "ServiceServer"]


#: longest request line the server reads, in bytes; a longer line gets
#: one ``error`` event and the connection is closed (the rest of the
#: line cannot be told apart from the next request)
LINE_LIMIT = 64 * 1024


def _encode(ev: Dict[str, Any]) -> bytes:
    return (json.dumps(ev, default=float) + "\n").encode()


async def _handle(
    service: CampaignService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # over LINE_LIMIT (asyncio's LimitOverrunError)
                writer.write(
                    _encode({
                        "event": "error",
                        "message": f"request line exceeds {LINE_LIMIT} bytes",
                    })
                )
                await writer.drain()
                break
            if not line:
                break
            try:
                req = json.loads(line)
            except (ValueError, RecursionError):  # RecursionError: nested too deep
                writer.write(_encode({"event": "error", "message": "malformed JSON"}))
                await writer.drain()
                continue
            op = req.get("op") if isinstance(req, dict) else None
            if op == "ping":
                writer.write(_encode({"event": "pong"}))
            elif op == "stats":
                writer.write(
                    _encode({"event": "stats", **service.service_stats()})
                )
            elif op == "submit":
                try:
                    async for ev in service.submit(req.get("spec")):
                        writer.write(_encode(ev))
                        await writer.drain()
                except SpecError as exc:
                    writer.write(_encode({"event": "error", "message": str(exc)}))
            else:
                writer.write(
                    _encode({"event": "error", "message": f"unknown op {op!r}"})
                )
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class ServiceServer:
    """The asyncio server plus its live connection handlers.

    Two teardown hazards this wrapper absorbs:

    * ``asyncio.Server.wait_closed`` (on 3.11) does not wait for handler
      coroutines of already-accepted connections, so tearing the loop
      down right after it cancels handlers mid-``readline`` — noisy and,
      for a handler mid-submit, lossy.
    * worker processes forked while connections are open inherit
      duplicates of the socket fds, so a client hanging up does not
      deliver EOF to the handler while the pool lives — a handler can
      wait in ``readline`` forever on a connection the client already
      closed.

    :meth:`close` therefore closes every live connection (handlers see
    EOF/reset and exit on their own) and :meth:`wait_closed` drains the
    handler tasks, cancelling only pathological stragglers.
    """

    def __init__(self, server: asyncio.AbstractServer, tasks: set, writers: set):
        self._server = server
        self._tasks = tasks
        self._writers = writers

    @property
    def sockets(self):
        return self._server.sockets

    def close(self) -> None:
        self._server.close()
        for w in list(self._writers):
            w.close()

    async def wait_closed(self, drain_timeout: float = 5.0) -> None:
        await self._server.wait_closed()
        if self._tasks:
            done, pending = await asyncio.wait(
                set(self._tasks), timeout=drain_timeout
            )
            for t in pending:  # pragma: no cover - pathological straggler
                t.cancel()
            if pending:  # pragma: no cover
                await asyncio.gather(*pending, return_exceptions=True)

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def __aenter__(self) -> "ServiceServer":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
        await self.wait_closed()


async def start_server(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
) -> ServiceServer:
    """Start serving ``service``; returns the (not yet awaited) server.

    ``unix_path`` switches to a unix-domain socket; otherwise a TCP
    socket on ``host:port`` (``port=0`` picks an ephemeral port — read
    it back from ``server.sockets[0].getsockname()``).
    """
    tasks: set = set()
    writers: set = set()

    async def handler(reader, writer):
        task = asyncio.current_task()
        tasks.add(task)
        writers.add(writer)
        try:
            await _handle(service, reader, writer)
        finally:
            tasks.discard(task)
            writers.discard(writer)

    if unix_path is not None:
        server = await asyncio.start_unix_server(handler, path=unix_path, limit=LINE_LIMIT)
    else:
        server = await asyncio.start_server(handler, host=host, port=port, limit=LINE_LIMIT)
    return ServiceServer(server, tasks, writers)


class ServiceClient:
    """Line-oriented asyncio client for one service connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
    ) -> "ServiceClient":
        if unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(unix_path)
        else:
            reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _request(self, req: Dict[str, Any]) -> Dict[str, Any]:
        self._writer.write(_encode(req))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    async def ping(self) -> Dict[str, Any]:
        return await self._request({"op": "ping"})

    async def stats(self) -> Dict[str, Any]:
        return await self._request({"op": "stats"})

    async def submit(self, spec: Dict[str, Any]) -> AsyncIterator[Dict[str, Any]]:
        """Submit one spec; yields event dicts until ``done``/``error``."""
        self._writer.write(_encode({"op": "submit", "spec": spec}))
        await self._writer.drain()
        while True:
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("service closed mid-stream")
            ev = json.loads(line)
            yield ev
            if ev.get("event") in ("done", "error"):
                return

    async def run_to_completion(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        last: Dict[str, Any] = {}
        async for ev in self.submit(spec):
            last = ev
        return last

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
