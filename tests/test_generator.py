"""Generator gateway: replay semantics, prompt rendering, retry policy, HTTP transport."""

import gc
import http.client
import http.server
import json
import socket
import ssl
import threading
import time
import warnings

import pytest

from planrag import generator
from planrag.bm25 import Passage, RetrievedPassage
from planrag.generator import (
    EvidenceBlock,
    FINALIZE_INSTRUCTION,
    GenerationContext,
    GeneratorError,
    GeneratorSettings,
    HttpChatGenerator,
    ReplayGenerator,
    StopReason,
    render_prompt,
    render_user_prompt,
    truncate_at_branch,
)
from planrag.planner import PlannerConfig, batch_run, episode_record, run_episode

CTX = GenerationContext(system_preamble="preamble", question="who?")


def evidence(query, *passages):
    return EvidenceBlock(query, [RetrievedPassage(p, 1.0, r) for r, p in enumerate(passages, 1)])


def make_ctx(**kwargs):
    defaults = dict(system_preamble="sys", question="q")
    defaults.update(kwargs)
    return GenerationContext(**defaults)


class TestReplay:
    def test_identity(self):
        gen = ReplayGenerator(["[ANSWER] 42 [SOLVED]"])
        emission = gen.emit_turn(CTX)
        assert emission.text == "[ANSWER] 42 [SOLVED]"
        assert emission.stop_reason is StopReason.END_OF_TURN

    def test_exhaustion(self):
        gen = ReplayGenerator(["a", "b"])
        gen.emit_turn(CTX)
        gen.emit_turn(CTX)
        with pytest.raises(GeneratorError, match="replay script exhausted after 2 turns"):
            gen.emit_turn(CTX)

    def test_order(self):
        gen = ReplayGenerator(["first", "second"])
        assert gen.emit_turn(CTX).text == "first"
        assert gen.emit_turn(CTX).text == "second"


class TestRenderPrompt:
    def test_base_case(self):
        prompt = render_prompt(make_ctx())
        assert prompt.startswith("sys\n\nQuestion: q")
        assert "Query:" not in prompt
        assert FINALIZE_INSTRUCTION not in prompt

    def test_passage_lines(self):
        block = evidence("find it", *(Passage(f"p{i}", f"T{i}", f"body {i}") for i in range(3)))
        prompt = render_user_prompt(make_ctx(evidence_blocks=(block,)))
        assert prompt.count("Query: find it") == 1
        for i in range(3):
            assert f"[{i + 1}] T{i}: body {i}" in prompt

    def test_deterministic(self):
        block = evidence("q1", Passage("p", "t", "x"))
        ctx = make_ctx(
            evidence_blocks=(block,),
            transcript="[INTERMEDIARY] partial",
        )
        assert render_prompt(ctx) == render_prompt(ctx)

    def test_finalize_instruction_appended(self):
        prompt = render_prompt(make_ctx(finalize_required=True))
        assert prompt.endswith(FINALIZE_INSTRUCTION)

    def test_newlines_escaped_in_fields(self):
        block = evidence("multi\nline", Passage("p", "t\n[2]", "x\ny"))
        a = render_user_prompt(make_ctx(evidence_blocks=(block,)))
        assert "multi\\nline" in a and "t\\n[2]" in a and "x\\ny" in a

    def test_injective_on_context_parts(self):
        contexts = [
            make_ctx(question="q1"),
            make_ctx(question="q1\nQuery: fake"),
            make_ctx(evidence_blocks=(evidence("q1"),)),
            make_ctx(evidence_blocks=(evidence("q1", Passage("p", "", "x")),)),
            make_ctx(transcript="Query: q1"),
            make_ctx(transcript="[ANSWER] x"),
        ]
        prompts = [render_prompt(c) for c in contexts]
        assert len(set(prompts)) == len(prompts)


# a malformed first branch with a complete branch after it
MALFORMED_TURN = "[SOLVED] oops [INTERMEDIARY] a [RETRIEVE] q [ANSWER] more junk"


class TestTruncation:
    def test_answer_branch_cut_after_solved(self):
        text = "[ANSWER] x [SOLVED] trailing [INTERMEDIARY] junk"
        assert truncate_at_branch(text) == "[ANSWER] x [SOLVED]"

    def test_retrieve_branch_cut_at_next_token(self):
        text = "[INTERMEDIARY] a [RETRIEVE] q [INTERMEDIARY] hallucinated"
        assert truncate_at_branch(text) == "[INTERMEDIARY] a [RETRIEVE] q "

    def test_incomplete_branch_unchanged(self):
        for text in ("[INTERMEDIARY] a [RETRIEVE] q", "[ANSWER] x", "plain", ""):
            assert truncate_at_branch(text) == text

    def test_first_completion_wins(self):
        text = "[INTERMEDIARY] a [RETRIEVE] q [ANSWER] x [SOLVED]"
        assert truncate_at_branch(text) == "[INTERMEDIARY] a [RETRIEVE] q "

    @pytest.mark.parametrize("text", [
        MALFORMED_TURN,
        "[INTERMEDIARY] a [ANSWER] x [SOLVED] junk",
        "[ANSWER] x [INTERMEDIARY] a [RETRIEVE] q [ANSWER]",
    ])
    def test_first_branch_not_closed_unchanged(self, text):
        # a complete branch later in the turn does not move the cut
        assert truncate_at_branch(text) == text

    def test_only_whitespace_after_solved_unchanged(self):
        text = "[ANSWER] x [SOLVED] \n "
        assert truncate_at_branch(text) == text

    def test_lead_text_kept(self):
        assert truncate_at_branch("lead [ANSWER] x [SOLVED] y") == "lead [ANSWER] x [SOLVED]"
        text = "lead [INTERMEDIARY] a [RETRIEVE] q [ANSWER]"
        assert truncate_at_branch(text) == "lead [INTERMEDIARY] a [RETRIEVE] q "


def transport_script(responses):
    """Fake transport yielding scripted (status, body) or raising failures."""
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        item = responses[min(len(calls) - 1, len(responses) - 1)]
        if isinstance(item, Exception):
            raise item
        return item

    transport.calls = calls
    return transport


def chat_body(text, finish="stop"):
    return {"choices": [{"message": {"content": text}, "finish_reason": finish}]}


def settings():
    return GeneratorSettings(endpoint="http://backend/v1/chat", model="m")


class TestHttpGenerator:
    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(generator, "BACKOFF_BASE_S", 0.0)

    def test_success(self):
        transport = transport_script([(200, chat_body("[ANSWER] hi [SOLVED]"))])
        gen = HttpChatGenerator(settings(), transport)
        emission = gen.emit_turn(CTX)
        assert emission.text == "[ANSWER] hi [SOLVED]"

    def test_transport_failures_exhaust_retries(self):
        transport = transport_script([ConnectionRefusedError(111, "Connection refused")] * 5)
        gen = HttpChatGenerator(settings(), transport)
        with pytest.raises(GeneratorError) as err:
            gen.emit_turn(CTX)
        assert str(err.value) == (
            "backend unavailable after 3 attempts: connection to the backend failed"
        )
        assert len(transport.calls) == 3

    def test_recovers_after_transient_failure(self):
        transport = transport_script(
            [ConnectionResetError(104, "reset by peer"), (503, {}), (200, chat_body("ok"))]
        )
        gen = HttpChatGenerator(settings(), transport)
        assert gen.emit_turn(CTX).text == "ok"

    def test_semantic_error_never_retried(self):
        transport = transport_script([(400, {"error": "bad request"})])
        gen = HttpChatGenerator(settings(), transport)
        with pytest.raises(GeneratorError) as err:
            gen.emit_turn(CTX)
        assert "unavailable" not in str(err.value)
        assert len(transport.calls) == 1

    def test_length_limit_surfaced_not_raised(self):
        transport = transport_script([(200, chat_body("partial", finish="length"))])
        emission = HttpChatGenerator(settings(), transport).emit_turn(CTX)
        assert emission.stop_reason is StopReason.LENGTH_LIMIT

    def test_client_truncation(self):
        transport = transport_script(
            [(200, chat_body("[ANSWER] hi [SOLVED] and then some [RETRIEVE] junk"))]
        )
        emission = HttpChatGenerator(settings(), transport).emit_turn(CTX)
        assert emission.text == "[ANSWER] hi [SOLVED]"
        assert emission.stop_reason is StopReason.CONTROL_BOUNDARY

    def test_a_malformed_turn_reads_as_under_replay(self):
        turns = [MALFORMED_TURN, "[ANSWER] paris [SOLVED]"]
        transport = transport_script([(200, chat_body(t)) for t in turns])
        chat = run_episode("Where?", PlannerConfig(), HttpChatGenerator(settings(), transport))
        replay = run_episode("Where?", PlannerConfig(), ReplayGenerator(turns))
        assert episode_record(chat, "q1") == episode_record(replay, "q1")

    def test_malformed_body_is_semantic(self):
        transport = transport_script([(200, {"nope": True})])
        with pytest.raises(GeneratorError):
            HttpChatGenerator(settings(), transport).emit_turn(CTX)

    @pytest.mark.parametrize("content", [5, [{"type": "text", "text": "[ANSWER] hi [SOLVED]"}],
                                         {"text": "[ANSWER] hi [SOLVED]"}])
    def test_content_that_is_not_text_is_malformed(self, content):
        transport = transport_script([(200, chat_body(content))])
        with pytest.raises(GeneratorError, match="malformed backend response") as err:
            HttpChatGenerator(settings(), transport).emit_turn(CTX)
        assert "unavailable" not in str(err.value)
        assert len(transport.calls) == 1

    def test_null_content_is_empty_text(self):
        transport = transport_script([(200, chat_body(None))])
        assert HttpChatGenerator(settings(), transport).emit_turn(CTX).text == ""

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_content_that_is_not_text_fails_only_its_episode(self, parallelism):
        def transport(url, headers, payload, timeout):
            if "Question: q2" in payload["messages"][1]["content"]:
                return 200, chat_body(["[ANSWER] x [SOLVED]"])
            return 200, chat_body("[ANSWER] x [SOLVED]")

        gen = HttpChatGenerator(settings(), transport)
        questions = [f"q{i}" for i in range(5)]
        out = batch_run(questions, PlannerConfig(), lambda i: gen, None, parallelism)
        assert [ep.status for ep in out] == ["completed"] * 2 + ["generator_failure"] + [
            "completed"
        ] * 2
        assert out[2].failure.startswith("malformed backend response")
        assert [ep.final_answer for i, ep in enumerate(out) if i != 2] == ["x"] * 4

    def test_reply_cut_short_is_retried(self):
        cut_short = http.client.IncompleteRead(b"cut", 480)
        transport = transport_script([cut_short, (200, chat_body("[ANSWER] x [SOLVED]"))])
        ep = run_episode("q", PlannerConfig(), HttpChatGenerator(settings(), transport))
        assert (ep.status, ep.final_answer) == ("completed", "x")
        assert len(transport.calls) == 2

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_replies_always_cut_short_fail_only_their_episode(self, parallelism):
        def transport(url, headers, payload, timeout):
            if "Question: q2" in payload["messages"][1]["content"]:
                raise http.client.IncompleteRead(b"cut", 480)
            return 200, chat_body("[ANSWER] x [SOLVED]")

        gen = HttpChatGenerator(settings(), transport)
        questions = [f"q{i}" for i in range(4)]
        out = batch_run(questions, PlannerConfig(), lambda i: gen, None, parallelism)
        assert [ep.status for ep in out] == ["completed"] * 2 + ["generator_failure", "completed"]
        assert out[2].failure == (
            "backend unavailable after 3 attempts: reply ended before its Content-Length"
        )

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("exc", [
        ssl.SSLCertVerificationError(1, "certificate verify failed: unable to get local issuer"),
        http.client.BadStatusLine("SSH-2.0-OpenSSH_9.6"),
        http.client.InvalidURL("nonnumeric port: 'x'"),
        ValueError("bad header"),
    ], ids=type)
    def test_other_transport_exception_fails_only_its_episode_unretried(self, exc, parallelism):
        asked = []

        def transport(url, headers, payload, timeout):
            question = payload["messages"][1]["content"].split("\n", 1)[0]
            asked.append(question)
            if question == "Question: q1":
                raise exc
            return 200, chat_body("[ANSWER] x [SOLVED]")

        gen = HttpChatGenerator(settings(), transport)
        out = batch_run(["q0", "q1", "q2"], PlannerConfig(), lambda i: gen, None, parallelism)
        assert [ep.status for ep in out] == ["completed", "generator_failure", "completed"]
        assert out[1].failure == f"backend request failed: {type(exc).__name__}"
        assert [ep.final_answer for ep in (out[0], out[2])] == ["x", "x"]
        assert sorted(asked) == ["Question: q0", "Question: q1", "Question: q2"]

    def test_keyboard_interrupt_in_the_transport_ends_the_call(self):
        def transport(url, headers, payload, timeout):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            HttpChatGenerator(settings(), transport).emit_turn(CTX)

    # each error as http.client, socket or ssl raises it
    @pytest.mark.parametrize("exc,reason", [
        (http.client.IncompleteRead(b"x" * 20, 460), "reply ended before its Content-Length"),
        (TimeoutError("timed out"), "timed out after 60 s"),
        (ConnectionRefusedError(111, "Connection refused"), "connection to the backend failed"),
        (ConnectionResetError(104, "Connection reset by peer"), "connection to the backend failed"),
        (http.client.RemoteDisconnected("Remote end closed connection without response"),
         "connection to the backend failed"),
        (socket.gaierror(-2, "Name or service not known"), "connection to the backend failed"),
        (ssl.SSLError(1, "[SSL: WRONG_VERSION_NUMBER] wrong version number"),
         "connection to the backend failed"),
        (OSError("disk"), "connection to the backend failed"),
    ], ids=["cut_short", "timeout", "refused", "reset", "remote_disconnected", "dns",
            "tls_handshake", "other_os_error"])
    def test_transport_failure_is_one_plain_sentence(self, exc, reason):
        transport = transport_script([exc])
        with pytest.raises(GeneratorError) as err:
            HttpChatGenerator(settings(), transport).emit_turn(CTX)
        assert str(err.value) == f"backend unavailable after 3 attempts: {reason}"
        assert len(transport.calls) == 3

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("PLANRAG_API_KEY", "sekrit")
        seen = {}

        def transport(url, headers, payload, timeout):
            seen.update(headers)
            return 200, chat_body("ok")

        HttpChatGenerator(settings(), transport).emit_turn(CTX)
        assert seen.get("Authorization") == "Bearer sekrit"


class Backend(http.server.ThreadingHTTPServer):
    """A chat backend on 127.0.0.1 that answers each POST with ``reply(payload)``."""

    daemon_threads = True

    def __init__(self, reply):
        super().__init__(("127.0.0.1", 0), BackendHandler)
        self.reply = reply
        self.seen = []

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat?model=m"


class BackendHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, so only the client's close ends the connection

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.path, dict(self.headers), payload))
        status, data, length = self.server.reply(payload)
        self.send_response(status)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(data)
        if length > len(data):  # the reply is cut short: close before the rest
            self.close_connection = True


def reply_with(status, data, length=None):
    return lambda payload: (status, data, len(data) if length is None else length)


@pytest.fixture
def backend():
    servers = []

    def start(reply):
        server = Backend(reply)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def request_is_whole(data: bytes) -> bool:
    """Whether ``data`` holds a request's head and the Content-Length bytes after it."""
    head, sep, body = data.partition(b"\r\n\r\n")
    return bool(sep) and len(body) >= int(
        head.lower().split(b"content-length:")[1].split(b"\r\n")[0])


@pytest.fixture
def trickler():
    """``start(reply, pace)``: a server on 127.0.0.1 that reads each request whole and
    answers with ``reply``, a pair of byte strings: the first sent at once, the second
    one byte every ``pace`` seconds. It stops when the client hangs up or the test ends."""
    stop = threading.Event()
    started = []

    def serve(listener, reply, pace):
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                data = b""
                while not request_is_whole(data):
                    chunk = conn.recv(65536)
                    if not chunk:  # the client hung up
                        break
                    data += chunk
                at_once, trickled = reply
                try:
                    conn.sendall(at_once)
                    for byte in trickled:
                        if stop.wait(pace):
                            break
                        conn.sendall(bytes([byte]))
                except OSError:  # the client hung up
                    pass

    def start(reply, pace):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)  # so that the serving thread sees stop between accepts
        thread = threading.Thread(target=serve, args=(listener, reply, pace), daemon=True)
        thread.start()
        started.append((listener, thread))
        return f"http://127.0.0.1:{listener.getsockname()[1]}/v1/chat"

    yield start
    stop.set()
    for listener, thread in started:
        thread.join(5)
        listener.close()


@pytest.fixture
def no_leaks():
    """Fail the test if a socket or file it opened is collected without being closed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class TestHttpTransport:
    """generator._http_transport against a real socket on 127.0.0.1."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(generator, "BACKOFF_BASE_S", 0.0)

    def test_reply_round_trips(self, backend, no_leaks, monkeypatch):
        monkeypatch.setenv("PLANRAG_API_KEY", "sekrit")
        body = chat_body("[ANSWER] caf\u00e9 [SOLVED] and more")
        server = backend(reply_with(200, json.dumps(body).encode()))
        gen = HttpChatGenerator(GeneratorSettings(endpoint=server.url, model="m"))
        emission = gen.emit_turn(make_ctx(question="caf\u00e9 \ud800?"))
        assert emission.text == "[ANSWER] caf\u00e9 [SOLVED]"
        [(path, headers, payload)] = server.seen
        assert path == "/v1/chat?model=m"
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer sekrit"
        assert payload == gen._payload(make_ctx(question="caf\u00e9 \ud800?"))

    @pytest.mark.parametrize("status,data,want", [
        (200, b"<html>not json</html>", (200, {})),
        (503, b"", (503, {})),
        (400, b'{"error": "bad"}', (400, {"error": "bad"})),
    ], ids=["not_json", "empty_5xx", "json_4xx"])
    def test_status_and_body(self, backend, no_leaks, status, data, want):
        server = backend(reply_with(status, data))
        assert generator._http_transport(server.url, {}, {"a": 1}, 5.0) == want

    def test_a_body_nested_past_the_recursion_limit_is_malformed(self, backend, no_leaks):
        server = backend(reply_with(200, b"[" * 100_000))
        assert generator._http_transport(server.url, {}, {"a": 1}, 5.0) == (200, {})
        gen = HttpChatGenerator(GeneratorSettings(endpoint=server.url, model="m"))
        with pytest.raises(GeneratorError, match="^malformed backend response: "):
            gen.emit_turn(make_ctx())
        assert len(server.seen) == 2  # one request each, never retried

    # http.client hands the connection to the response for these replies and
    # closes it before the body is read; the body arrives a byte at a time, so
    # most of it is read after that close
    @pytest.mark.parametrize("head", [
        b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: %d\r\n\r\n",
        b"HTTP/1.0 200 OK\r\n\r\n",  # no Content-Length: the body ends with the connection
    ], ids=["connection_close", "http_1_0_to_eof"])
    def test_a_reply_that_closes_the_connection_round_trips(self, trickler, no_leaks, head):
        data = json.dumps(chat_body("[ANSWER] x [SOLVED]")).encode()
        head = head.replace(b"%d", str(len(data)).encode())
        url = trickler((head + data[:5], data[5:]), pace=0.001)
        assert generator._http_transport(url, {}, {"a": 1}, 5.0) == (200, json.loads(data))

    # a body of 100 bytes at 20 per second takes 5 s, each byte well within any
    # per-read timeout; the deadline must end the request within MARGIN_S of itself
    HEAD = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n"
    MARGIN_S = 0.5

    @pytest.mark.parametrize("reply", [(HEAD, b"x" * 100), (b"", HEAD + b"x" * 100)],
                             ids=["body", "status_and_headers"])
    def test_a_trickled_reply_ends_at_the_deadline(self, trickler, no_leaks, reply):
        url = trickler(reply, pace=0.05)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            generator._http_transport(url, {}, {"a": 1}, 0.5)
        assert 0.5 <= time.monotonic() - start < 0.5 + self.MARGIN_S

    def test_each_attempt_has_its_own_deadline(self, trickler, no_leaks, monkeypatch):
        monkeypatch.setattr(generator, "TIMEOUT_S", 0.3)
        url = trickler((self.HEAD, b"x" * 100), pace=0.05)
        start = time.monotonic()
        with pytest.raises(GeneratorError) as err:
            HttpChatGenerator(GeneratorSettings(endpoint=url, model="m")).emit_turn(CTX)
        assert str(err.value) == "backend unavailable after 3 attempts: timed out after 0.3 s"
        assert 3 * 0.3 <= time.monotonic() - start < 3 * (0.3 + self.MARGIN_S)

    def test_reply_cut_short_is_retried(self, backend, no_leaks):
        server = backend(reply_with(200, b'{"choices": [', length=480))
        gen = HttpChatGenerator(GeneratorSettings(endpoint=server.url, model="m"))
        with pytest.raises(GeneratorError) as err:
            gen.emit_turn(CTX)
        assert str(err.value) == (
            "backend unavailable after 3 attempts: reply ended before its Content-Length"
        )
        assert len(server.seen) == 3

    # 2 MiB, twice the bound, sent at once; the client hangs up after the bound
    LARGE = 2 << 20

    @pytest.mark.parametrize("head", [
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % LARGE,
        b"HTTP/1.0 200 OK\r\n\r\n",  # no Content-Length: the body ends with the connection
    ], ids=["content_length", "to_eof"])
    def test_a_reply_past_the_byte_bound_fails_its_episode_unretried(self, trickler, no_leaks,
                                                                      head):
        assert generator.MAX_REPLY_BYTES < self.LARGE
        url = trickler((head + b"x" * self.LARGE, b""), pace=0)
        calls = []

        def transport(*args):
            calls.append(args[0])
            return generator._http_transport(*args)

        gen = HttpChatGenerator(GeneratorSettings(endpoint=url, model="m"), transport)
        [ep] = batch_run(["q"], PlannerConfig(), lambda i: gen, None, 1)
        assert (ep.status, ep.failure) == (
            "generator_failure", f"backend reply is larger than {generator.MAX_REPLY_BYTES} bytes")
        assert calls == [url]

    def test_a_content_length_past_the_bound_is_refused_before_the_body(self, trickler,
                                                                         no_leaks):
        # the body would take 100 s to arrive, so only the head can be read in time
        head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (generator.MAX_REPLY_BYTES + 1)
        url = trickler((head, b"x" * 1000), pace=0.1)
        start = time.monotonic()
        with pytest.raises(GeneratorError, match="^backend reply is larger than"):
            generator._http_transport(url, {}, {"a": 1}, 5.0)
        assert time.monotonic() - start < 1.0

    def test_refused_port_is_retried(self, no_leaks):
        with socket.socket() as unused:  # bound but not listening, so a connect is refused
            unused.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{unused.getsockname()[1]}/v1/chat"
            calls = []

            def transport(*args):
                calls.append(args[0])
                return generator._http_transport(*args)

            gen = HttpChatGenerator(GeneratorSettings(endpoint=url, model="m"), transport)
            with pytest.raises(GeneratorError) as err:
                gen.emit_turn(CTX)
        assert str(err.value) == (
            "backend unavailable after 3 attempts: connection to the backend failed"
        )
        assert calls == [url] * 3

    def test_https_to_a_plain_http_port_is_a_connection_failure(self, backend, no_leaks):
        server = backend(reply_with(200, b"{}"))
        url = server.url.replace("http://", "https://")
        with pytest.raises(GeneratorError) as err:
            HttpChatGenerator(GeneratorSettings(endpoint=url, model="m")).emit_turn(CTX)
        assert str(err.value) == (
            "backend unavailable after 3 attempts: connection to the backend failed"
        )
        assert server.seen == []

    @pytest.mark.parametrize("url", ["ftp://backend/v1/chat", "backend/v1/chat", "http://:80/v1",
                                     "http://backend:x/v1", "http://[::1/v1"])
    def test_endpoint_that_is_not_http_with_a_host_is_not_retried(self, url):
        calls = []

        def transport(*args):
            calls.append(args[0])
            return generator._http_transport(*args)

        gen = HttpChatGenerator(GeneratorSettings(endpoint=url, model="m"), transport)
        with pytest.raises(GeneratorError) as err:
            gen.emit_turn(CTX)
        assert str(err.value) == "backend request failed: ValueError"
        assert calls == [url]
