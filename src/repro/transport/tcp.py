"""TCP transport: the stream-transport machinery bound to ``AF_INET``.

All the serving, framing-autodetect, pipelining, and pooled-channel
logic lives in :mod:`repro.transport.stream` (whose ``StreamServer`` is
the staged core of :mod:`repro.transport.netloop`); this module contributes
only what is TCP-specific — binding a listening ``AF_INET`` socket,
``TCP_NODELAY`` on every connection, dialing ``host:port``, and the
``tcp://host:port`` address form.
"""

from __future__ import annotations

import socket
from typing import Optional

from repro.errors import DeadlineExceededError, RetryableError
from repro.transport.base import RequestHandler
from repro.transport.stream import (
    PipelinedStreamChannel,
    StreamChannel,
    StreamServer,
)


def _bind_tcp(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(128)
    return sock


def _dial_tcp(host: str, port: int, timeout: Optional[float]) -> socket.socket:
    """A connected, NODELAY ``AF_INET`` socket, with stream-transport
    error mapping (timeout → deadline, refusal → retryable)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout as exc:
        raise DeadlineExceededError(
            f"connect to {host}:{port} timed out: {exc}"
        ) from exc
    except OSError as exc:
        raise RetryableError(f"cannot connect to {host}:{port}: {exc}") from exc
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class TcpServer(StreamServer):
    """Serves a request handler over TCP until stopped (staged core).

    Keyword *server_options* pass through to the staged stream server:
    ``workers``, ``queue_capacity``, ``max_inflight_per_conn``,
    ``overload_policy``, ``partial_read_timeout``, ``metrics``.

    Usable as a context manager::

        with TcpServer(handler) as server:
            channel = TcpChannel(server.host, server.port)
    """

    def __init__(
        self,
        handler: RequestHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_options: object,
    ) -> None:
        sock = _bind_tcp(host, port)
        self.host, self.port = sock.getsockname()
        super().__init__(
            handler, sock, label=f"tcp-{self.port}", **server_options
        )

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def _configure_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class TcpChannel(StreamChannel):
    """Client channel over a single pooled TCP connection."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0) -> None:
        super().__init__(timeout=timeout)
        self.host = host
        self.port = port

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        return _dial_tcp(self.host, self.port, timeout)

    def _describe(self) -> str:
        return f"{self.host}:{self.port}"


class PipelinedTcpChannel(PipelinedStreamChannel):
    """A TCP channel keeping many calls in flight on one connection.

    See :class:`repro.transport.stream.PipelinedStreamChannel` for the
    correlation-id protocol and failure semantics.
    """

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0) -> None:
        super().__init__(label="tcp", timeout=timeout)
        self.host = host
        self.port = port

    def _open_socket(self, timeout: Optional[float]) -> socket.socket:
        return _dial_tcp(self.host, self.port, timeout)

    def _describe(self) -> str:
        return f"{self.host}:{self.port}"
