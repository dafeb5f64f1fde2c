"""Control-token grammar: streaming detection, trajectory parsing and validation.

A generation trajectory alternates literal control tokens with free text.
The accepted shape is ``([INTERMEDIARY] text [RETRIEVE] query)* [ANSWER] text
[SOLVED]``; the zero-iteration case is a direct answer. Parsing is total
(every string parses), validity is a separate judgement.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple


class ControlToken(Enum):
    """The four literal control tokens, in the order they may drive a turn."""

    INTERMEDIARY = "[INTERMEDIARY]"
    RETRIEVE = "[RETRIEVE]"
    ANSWER = "[ANSWER]"
    SOLVED = "[SOLVED]"

    # members are singletons compared by identity, so hash them by identity in C;
    # Enum.__hash__ is a Python call on every TRANSITIONS lookup
    __hash__ = object.__hash__

    @property
    def surface(self) -> str:
        return self.value


_SURFACE_TO_TOKEN = {t.value: t for t in ControlToken}
# a marker's surface by dict lookup, which is cheaper than the property; None renders as ""
_SURFACE = {t: t.value for t in ControlToken} | {None: ""}
# global reads for the per-segment loops: ControlToken.ANSWER goes through Enum's
# class attribute lookup, about 0.1 us each time
_RETRIEVE, _ANSWER = ControlToken.RETRIEVE, ControlToken.ANSWER
# No surface form is a prefix or substring of another, so a plain alternation
# scan is unambiguous; longest-match ordering is kept anyway. The group makes
# re.split keep each token between the texts around it.
_TOKEN_RE = re.compile(
    "(" + "|".join(re.escape(s) for s in sorted(_SURFACE_TO_TOKEN, key=len, reverse=True)) + ")"
)
_MAX_SURFACE_LEN = max(len(s) for s in _SURFACE_TO_TOKEN)


class Segment(NamedTuple):
    """One marker (None only for leading plain text) plus the text that follows it."""

    marker: ControlToken | None
    text: str


class Trajectory(NamedTuple):
    segments: tuple[Segment, ...]
    source: str

    def render(self) -> str:
        return render_segments(self.segments)

    @classmethod
    def from_segments(cls, segments: list[Segment] | tuple[Segment, ...]) -> "Trajectory":
        segs = tuple(segments)
        return cls(segments=segs, source=render_segments(segs))


def render_segments(segments: tuple[Segment, ...] | list[Segment]) -> str:
    surface = _SURFACE
    return "".join([surface[marker] + text for marker, text in segments])


def parse_trajectory(text: str) -> Trajectory:
    """Split text into segments at control-token occurrences. Lossless and total."""
    # [leading text, token, its text, token, its text, ...]
    parts = _TOKEN_RE.split(text)
    segments = [Segment(None, parts[0])] if parts[0] else []
    segments += map(Segment, map(_SURFACE_TO_TOKEN.__getitem__, parts[1::2]), parts[2::2])
    return Trajectory(tuple(segments), text)


def split_head(text: str) -> list:
    """Text split at its first three control tokens, each token as its ControlToken.

    ``[lead, token, text, token, text, token, rest]``, cut short after the
    last token the text holds; ``rest`` is everything after the third token,
    unsplit, so a reader of the first branch never scans the whole text.
    """
    # maxsplit by keyword: Python 3.13 deprecates passing it to re.split positionally
    parts = _TOKEN_RE.split(text, maxsplit=3)
    # at most three tokens: a loop over them is cheaper than a slice assignment of a map
    for i in range(1, len(parts), 2):
        parts[i] = _SURFACE_TO_TOKEN[parts[i]]
    return parts


def strip_control_tokens(text: str) -> str:
    """``text`` without its control-token surfaces, its words joined by single spaces."""
    # surfaces cannot overlap, so one pass removes what replacing each in turn would
    return " ".join(_TOKEN_RE.sub(" ", text).split())


# --- streaming scanner -------------------------------------------------------


class TextRun(NamedTuple):
    text: str


class TokenEvent(NamedTuple):
    token: ControlToken


StreamEvent = TextRun | TokenEvent


class ScannerState(NamedTuple):
    """Carry-over between chunks: the longest tail that may still become a token."""

    pending: str = ""


def _token_prefix_suffix(text: str) -> int:
    """Length of the longest suffix of text that is a proper prefix of a token."""
    limit = min(len(text), _MAX_SURFACE_LEN - 1)
    for n in range(limit, 0, -1):
        tail = text[-n:]
        if any(s.startswith(tail) for s in _SURFACE_TO_TOKEN):
            return n
    return 0


def scan_stream(
    chunk: str, state: ScannerState | None = None, *, final: bool = False
) -> tuple[list[StreamEvent], ScannerState]:
    """Scan one chunk, emitting text runs and token events.

    Tokens split across chunk boundaries are held in ``state.pending`` until
    resolved. A ``final=True`` call drains the pending tail as plain text.
    """
    state = state or ScannerState()
    buf = state.pending + chunk
    events: list[StreamEvent] = []
    pos = 0
    for m in _TOKEN_RE.finditer(buf):
        if m.start() > pos:
            events.append(TextRun(buf[pos : m.start()]))
        events.append(TokenEvent(_SURFACE_TO_TOKEN[m.group(0)]))
        pos = m.end()
    tail = buf[pos:]
    keep = 0 if final else _token_prefix_suffix(tail)
    if len(tail) > keep:
        events.append(TextRun(tail[: len(tail) - keep]))
    pending = tail[len(tail) - keep :] if keep else ""
    return events, ScannerState(pending=pending)


def coalesce_events(events: list[StreamEvent]) -> list[StreamEvent]:
    """Merge adjacent text runs and drop empty ones (canonical event form)."""
    out: list[StreamEvent] = []
    for ev in events:
        if isinstance(ev, TextRun):
            if not ev.text:
                continue
            if out and isinstance(out[-1], TextRun):
                out[-1] = TextRun(out[-1].text + ev.text)
                continue
        out.append(ev)
    return out


# --- grammar -----------------------------------------------------------------

# Expectation states: what the grammar accepts next.
OPEN = "open"  # a new branch: Intermediary or Answer
AWAIT_RETRIEVE = "retrieve"  # the Retrieve that closes an intermediary branch
AWAIT_SOLVED = "solved"  # the Solved that closes an answer branch
END = "end"  # nothing more

_NO_RETRIEVE = "Intermediary not followed by Retrieve"
_NO_SOLVED = "Answer not followed by Solved"
_NO_ANSWER = "Solved without Answer"

# The grammar, written once: (state, marker) -> (next state, breach or None).
# After a breach, reading goes on from the next state given here. Breach
# messages live in the table so that each step is a single lookup.
TRANSITIONS: dict[tuple[str, ControlToken], tuple[str, str | None]] = {
    (OPEN, ControlToken.INTERMEDIARY): (AWAIT_RETRIEVE, None),
    (OPEN, ControlToken.RETRIEVE): (OPEN, "Retrieve without Intermediary"),
    (OPEN, ControlToken.ANSWER): (AWAIT_SOLVED, None),
    (OPEN, ControlToken.SOLVED): (OPEN, _NO_ANSWER),
    (AWAIT_RETRIEVE, ControlToken.INTERMEDIARY): (AWAIT_RETRIEVE, _NO_RETRIEVE),
    (AWAIT_RETRIEVE, ControlToken.RETRIEVE): (OPEN, None),
    (AWAIT_RETRIEVE, ControlToken.ANSWER): (AWAIT_SOLVED, _NO_RETRIEVE),
    (AWAIT_RETRIEVE, ControlToken.SOLVED): (AWAIT_RETRIEVE, _NO_ANSWER),
    (AWAIT_SOLVED, ControlToken.INTERMEDIARY): (AWAIT_SOLVED, _NO_SOLVED),
    (AWAIT_SOLVED, ControlToken.RETRIEVE): (AWAIT_SOLVED, _NO_SOLVED),
    (AWAIT_SOLVED, ControlToken.ANSWER): (AWAIT_SOLVED, _NO_SOLVED),
    (AWAIT_SOLVED, ControlToken.SOLVED): (END, None),
    **{(END, t): (END, f"content after Solved ({t.name})") for t in ControlToken},
}
# The breach of a trajectory that stops in each state; END is the only final one.
END_BREACH: dict[str, str | None] = {
    OPEN: "no Answer emitted",
    AWAIT_RETRIEVE: _NO_RETRIEVE,
    AWAIT_SOLVED: "Answer without Solved",
    END: None,
}


def closed_branch(segments: tuple[Segment, ...]) -> tuple[Segment, Segment] | None:
    """The first two segments as one complete branch, or None if they are not one.

    A branch opens with a marker the open state accepts and closes with the
    marker that leads back to it (a retrieval query, kept) or to the end (the
    text after Solved, dropped).
    """
    if len(segments) < 2 or segments[0].marker is None:
        return None
    closer = segments[1]
    state, breach = TRANSITIONS[OPEN, segments[0].marker]
    if not breach:
        state, breach = TRANSITIONS[state, closer.marker]
    if breach:
        return None
    if state == END:
        closer = Segment(closer.marker, "")
    return segments[0], closer


def last_answer(t: Trajectory) -> str | None:
    """Text of the last answer segment; None when no answer was emitted."""
    for marker, text in reversed(t.segments):
        if marker is _ANSWER:
            return text
    return None


# --- validation --------------------------------------------------------------


class ValidationReport(NamedTuple):
    """The grammar's verdict on a trajectory, and what the walk that reached it saw.

    ``markers`` are the trajectory's control tokens in order, as
    ``control_sequence`` gives them, so that a caller that validates needs no
    second pass over the segments to compare control sequences.
    """

    valid: bool
    violations: tuple[str, ...]
    retrieve_count: int
    markers: tuple[ControlToken, ...]


def control_sequence(t: Trajectory) -> list[ControlToken]:
    """Markers in order, text dropped."""
    return [seg.marker for seg in t.segments if seg.marker is not None]


def validate(t: Trajectory, max_rounds: int) -> ValidationReport:
    """Check t against ((INTERMEDIARY text RETRIEVE query)* ANSWER text SOLVED).

    Also flags empty retrieval queries, a retrieve count above max_rounds and
    stray plain text outside the grammar. Whitespace-only leading/trailing
    text is tolerated. One walk over the segments gives the verdict, the
    retrieve count and the markers in order.
    """
    violations: list[str] = []
    markers: list[ControlToken] = []
    retrieve_count = 0
    state = OPEN
    for marker, text in t.segments:
        if marker is None:
            if text.strip():
                violations.append("plain text before first control token")
            continue
        markers.append(marker)
        if marker is _RETRIEVE and state != END:
            retrieve_count += 1
            if not text.strip():
                violations.append("Retrieve with empty query")
        state, breach = TRANSITIONS[state, marker]
        if breach:
            violations.append(breach)
        elif state == END and text.strip():
            violations.append("text after Solved")
    if END_BREACH[state]:
        violations.append(END_BREACH[state])
    if retrieve_count > max_rounds:
        violations.append(
            f"retrieve count {retrieve_count} exceeds max rounds {max_rounds}"
        )
    # positional: keyword arguments make a NamedTuple's __new__ take about twice as long
    return ValidationReport(not violations, tuple(violations), retrieve_count, tuple(markers))
