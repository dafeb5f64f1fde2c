"""Generator gateway: replay scripts for tests, chat-completions HTTP backend."""

from __future__ import annotations

import functools
import io
import json
import os
import time
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from .bm25 import RetrievedPassage
from .control import read_turn
from .control import parse_trajectory  # not called here: perfbench/tracing.py wraps this name

if TYPE_CHECKING:  # pragma: no cover
    import ssl

DEFAULT_PREAMBLE = (
    "You answer questions by planning retrieval with control tokens. "
    "Emit [INTERMEDIARY] followed by your partial reasoning and [RETRIEVE] "
    "followed by a search query when you need external evidence. "
    "When you can answer, emit [ANSWER] followed by the final answer and "
    "then [SOLVED]."
)

FINALIZE_INSTRUCTION = (
    "The retrieval budget is exhausted. Finalize now: emit the answer control "
    "token, your best final answer from the evidence above, and the "
    "termination token."
)


class GeneratorError(Exception):
    pass


class StopReason(Enum):
    CONTROL_BOUNDARY = "control_boundary"
    END_OF_TURN = "end_of_turn"
    LENGTH_LIMIT = "length_limit"


class EvidenceBlock(NamedTuple):
    """One retrieval round: its query and ranked hits, as an episode's memory logs
    them and as the prompt shows them."""

    query: str
    results: list[RetrievedPassage]


class GenerationContext(NamedTuple):
    system_preamble: str
    question: str
    evidence_blocks: tuple[EvidenceBlock, ...] = ()
    transcript: str = ""
    finalize_required: bool = False


class GeneratorEmission(NamedTuple):
    text: str
    stop_reason: StopReason = StopReason.END_OF_TURN


def _escape_line(s: str) -> str:
    return s.replace("\\", "\\\\").replace("\n", "\\n")


def render_user_prompt(ctx: GenerationContext) -> str:
    """Deterministic serialization of question, evidence and prior transcript."""
    lines = [f"Question: {_escape_line(ctx.question)}"]
    for block in ctx.evidence_blocks:
        lines.append(f"Query: {_escape_line(block.query)}")
        for k, (p, _, _) in enumerate(block.results, 1):
            lines.append(f"[{k}] {_escape_line(p.title)}: {_escape_line(p.text)}")
    lines.append("Transcript:")
    lines.append(ctx.transcript)
    if ctx.finalize_required:
        lines.append(FINALIZE_INSTRUCTION)
    return "\n".join(lines)


def render_prompt(ctx: GenerationContext) -> str:
    return ctx.system_preamble + "\n\n" + render_user_prompt(ctx)


def truncate_at_branch(text: str) -> str:
    """Cut a turn where ``read_turn``'s reading of it ends, once its first branch closes.

    An answer branch closes at [SOLVED], and the text after it is dropped; an
    intermediary branch closes at the end of its retrieval query, i.e. the next
    control token. A turn whose first branch does not close, or has only
    whitespace after it, is returned unchanged.
    """
    reading = read_turn(text)
    if reading.truncated and (reading.kind == "retrieve" or reading.has_solved):
        return reading.consumed
    return text


class ReplayGenerator:
    """Deterministic scripted stand-in for the generative policy.

    Turns are consumed strictly in order; requesting past the end raises
    GeneratorError. One script serves exactly one episode.
    """

    def __init__(self, turns: list[str]):
        self.turns = list(turns)
        self.cursor = 0

    def emit_turn(self, ctx: GenerationContext) -> GeneratorEmission:
        if self.cursor >= len(self.turns):
            raise GeneratorError(f"replay script exhausted after {len(self.turns)} turns")
        text = self.turns[self.cursor]
        self.cursor += 1
        return GeneratorEmission(text)


@dataclass
class GeneratorSettings:
    endpoint: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 512
    auth_env: str = "PLANRAG_API_KEY"


# the retry policy for transport-level failures is fixed: no caller needs another
MAX_ATTEMPTS = 3
BACKOFF_BASE_S = 0.5
TIMEOUT_S = 60.0
# a reply body larger than this is refused, and not asked for again: a completion of
# max_tokens tokens is a few kilobytes, and the deadline alone bounds only the time
MAX_REPLY_BYTES = 1 << 20
# a reply without a Content-Length is read this many bytes at a time
_READ_CHUNK = 1 << 16


Transport = Callable[[str, dict, dict, float], tuple[int, dict]]


def split_endpoint(url: str) -> urllib.parse.SplitResult:
    """``url`` split into its parts; ValueError unless it is http:// or https:// with a host."""
    parts = urllib.parse.urlsplit(url)
    parts.port  # raises ValueError for a port that is not a number from 0 to 65535
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http:// or https:// URL with a host: {url!r}")
    return parts


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """The system CA store, shared by every HTTPS request: loading it takes about 50 ms."""
    import ssl

    return ssl.create_default_context()


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (a ``time.monotonic()`` reading); TimeoutError once past it."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("the request's deadline passed")
    return left


class _DeadlineSocket:
    """A connected socket as ``http.client`` uses it, each send and receive bounded by one deadline.

    Before every call into the socket, its timeout is set to the time left, so
    a backend that trickles its reply, each byte within any fixed per-read
    timeout, still cannot hold the request past the deadline. ``close`` leaves
    the socket open: ``http.client`` closes the connection before it reads a
    reply that ends with the connection (``Connection: close``, HTTP/1.0, no
    Content-Length), and the reply's reader still needs the socket. Whoever
    wraps the socket closes it.
    """

    def __init__(self, sock, deadline: float) -> None:
        self.sock, self.deadline = sock, deadline

    def sendall(self, data) -> None:
        self.sock.settimeout(_time_left(self.deadline))
        self.sock.sendall(data)

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(_Receiver(self))

    def close(self) -> None:
        pass


class _Receiver(io.RawIOBase):
    """The reading side of a _DeadlineSocket, as ``socket.makefile`` gives one: the reply
    is read in the chunks the backend sends, each receive waiting at most the time left."""

    def __init__(self, conn: _DeadlineSocket) -> None:
        self.conn = conn

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self.conn.sock.settimeout(_time_left(self.conn.deadline))
        return self.conn.sock.recv_into(buffer)


def _http_transport(url: str, headers: dict, payload: dict, timeout: float):
    """POST ``payload`` as JSON on a connection of its own; ``(status, body)``.

    The request has one deadline, ``timeout`` seconds after it starts. The
    connection is made with the time left as its timeout, and every send and
    every read of the reply after it waits at most the time left, so past the
    deadline the request raises TimeoutError however the backend paces its
    bytes. A body that is not JSON reads as ``{}``; one larger than
    MAX_REPLY_BYTES raises GeneratorError (_read_body). The connection is
    closed on every path, so nothing is kept between requests.
    ``http.client`` is imported here, not with the module, so that the
    commands that never ask a backend do not load it.
    """
    import http.client

    deadline = time.monotonic() + timeout
    parts = split_endpoint(url)
    if parts.scheme == "https":
        context = _tls_context()  # on the first request, its loading counts against the deadline
        conn = http.client.HTTPSConnection(
            parts.hostname, parts.port, timeout=_time_left(deadline), context=context
        )
    else:
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=_time_left(deadline))
    path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    sock = None
    try:
        conn.connect()  # closed by conn.close() if it fails after making a socket
        sock = conn.sock
        conn.sock = _DeadlineSocket(sock, deadline)
        conn.request("POST", path, json.dumps(payload, allow_nan=False).encode(), headers)
        with conn.getresponse() as resp:
            raw = _read_body(resp)
    finally:
        conn.close()
        if sock is not None:
            sock.close()
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError):  # not JSON or nested too deep
        body = {}
    return resp.status, body


def _read_body(resp) -> bytes:
    """The body of an ``http.client`` reply, holding at most MAX_REPLY_BYTES of it.

    A Content-Length past the bound is refused before any of the body is read,
    and a body cut short of its Content-Length raises IncompleteRead. A body
    without one is read in chunks, and refused at the first chunk past the
    bound. The refusal is a GeneratorError.
    """
    if resp.length is not None:  # the Content-Length: read() reads that many bytes or raises
        if resp.length <= MAX_REPLY_BYTES:
            return resp.read()
    else:
        body = bytearray()
        while len(body) <= MAX_REPLY_BYTES and (chunk := resp.read(_READ_CHUNK)):
            body += chunk
        if len(body) <= MAX_REPLY_BYTES:
            return bytes(body)
    raise GeneratorError(f"backend reply is larger than {MAX_REPLY_BYTES} bytes")


def _retry_reason(exc: Exception) -> str | None:
    """The plain sentence for a transport failure that is retried; None if it is not.

    A failed certificate check is an ``OSError`` too, but asking again cannot
    pass it. ``str(exc)`` is not recorded: a socket error's holds an errno.
    """
    import http.client
    import ssl

    if isinstance(exc, http.client.IncompleteRead):
        return "reply ended before its Content-Length"
    if isinstance(exc, TimeoutError):
        return f"timed out after {TIMEOUT_S:g} s"
    if isinstance(exc, OSError) and not isinstance(exc, ssl.SSLCertVerificationError):
        return "connection to the backend failed"  # refused, reset, closed, DNS
    return None


class HttpChatGenerator:
    """Chat-completions client with bounded exponential-backoff retries.

    Only transport-level failures (connection errors, timeouts, replies cut
    short, 5xx) are retried; a semantic backend rejection (4xx, malformed
    body, a reply past MAX_REPLY_BYTES), a failed certificate check and any
    other exception of the transport never are.
    """

    def __init__(self, settings: GeneratorSettings, transport: Transport | None = None):
        self.settings = settings
        self.transport = transport or _http_transport

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        secret = os.environ.get(self.settings.auth_env, "")
        if secret:
            headers["Authorization"] = f"Bearer {secret}"
        return headers

    def _payload(self, ctx: GenerationContext) -> dict:
        return {
            "model": self.settings.model,
            "messages": [
                {"role": "system", "content": ctx.system_preamble},
                {"role": "user", "content": render_user_prompt(ctx)},
            ],
            "temperature": self.settings.temperature,
            "max_tokens": self.settings.max_tokens,
        }

    def _request(self, payload: dict) -> dict:
        last_error = "unknown transport failure"
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            try:
                status, body = self.transport(
                    self.settings.endpoint, self._headers(), payload, TIMEOUT_S
                )
            except GeneratorError:  # the transport refused the reply: its text is the failure
                raise
            except Exception as exc:
                reason = _retry_reason(exc)
                if reason is None:  # not a failure to reach the backend
                    raise GeneratorError(f"backend request failed: {type(exc).__name__}") from exc
                last_error = reason
                continue
            if status >= 500:
                last_error = f"backend returned {status}"
                continue
            if status >= 400:
                raise GeneratorError(f"backend rejected request with status {status}")
            return body
        raise GeneratorError(f"backend unavailable after {MAX_ATTEMPTS} attempts: {last_error}")

    def emit_turn(self, ctx: GenerationContext) -> GeneratorEmission:
        body = self._request(self._payload(ctx))
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason", "stop")
        except (KeyError, IndexError, TypeError) as exc:
            raise GeneratorError(f"malformed backend response: {exc}") from exc
        if text is None:
            text = ""
        elif not isinstance(text, str):
            raise GeneratorError(
                f"malformed backend response: message content is {type(text).__name__}, not text"
            )
        stop_reason = StopReason.END_OF_TURN
        if finish == "length":
            stop_reason = StopReason.LENGTH_LIMIT
        truncated = truncate_at_branch(text)
        if truncated != text:
            text = truncated
            stop_reason = StopReason.CONTROL_BOUNDARY
        return GeneratorEmission(text, stop_reason)
