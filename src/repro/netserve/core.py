"""The single dispatch path every transport shares.

:class:`RequestHandler` is where a decoded request line becomes a
stream of response events, for all six verbs
(``batch``/``evaluate``/``dse``/``query``/``metrics``/``shutdown``).
Both transports run *this* code and nothing else:

* the stdin/stdout pipe loop (:func:`repro.service.server.serve`)
  iterates :meth:`RequestHandler.handle_line` inline, one request at a
  time;
* the TCP server (:mod:`repro.netserve.server`) runs the same
  generator on executor threads, forwarding each yielded event into
  the owning client's writer as it appears.

So a verb behaves identically over a pipe and over TCP by
construction -- there is no second implementation to drift.

The handler never raises to its caller: framing problems
(:func:`repro.netserve.protocol.decode_line`) and verb-level
``ValueError``/``RuntimeError`` failures all surface as a terminal
``error`` event, which is what keeps one bad request from tearing down
a shared service.  Every handled request is timed into the attached
:class:`~repro.netserve.metrics.ServerMetrics` under its verb.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, Optional, Union

from repro import faults
from repro.netserve.metrics import ServerMetrics
from repro.netserve.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    decode_line,
    error_event,
    is_terminal,
    request_deadline,
    request_priority,
    timeout_event,
)
from repro.service.dispatcher import BatchDispatcher
from repro.service.schema import BatchRequest, DseRequest, QueryRequest

#: The verb vocabulary, in the order error messages list it.
KNOWN_VERBS = ("batch", "dse", "evaluate", "metrics", "query", "shutdown")

#: Envelope-only verbs: no body fields beyond ``id``/``verb``/``priority``.
_BARE_VERB_FIELDS = frozenset({"id", "verb"})


class RequestHandler:
    """One decoded request in, a stream of response events out.

    Wraps a :class:`~repro.service.dispatcher.BatchDispatcher` (and
    through it the one shared warm :class:`repro.api.Session`) plus a
    :class:`~repro.netserve.metrics.ServerMetrics`.  Thread-safe to the
    extent its session is: the dispatcher methods only touch the
    engine/cache/store layers, all of which carry their own locks, so
    the TCP server may run several :meth:`handle` generators on
    concurrent executor threads.

    The ``shutdown`` verb does not stop anything by itself -- it flips
    :attr:`shutdown_requested` (a :class:`threading.Event` under the
    hood) and answers; the owning transport polls the flag and drains.
    """

    def __init__(self, dispatcher: Optional[BatchDispatcher] = None,
                 parallel: Optional[bool] = None,
                 metrics: Optional[ServerMetrics] = None,
                 max_line_bytes: Optional[int] = None) -> None:
        self.dispatcher = dispatcher or BatchDispatcher()
        self.parallel = parallel
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.max_line_bytes = (DEFAULT_MAX_LINE_BYTES
                               if max_line_bytes is None else max_line_bytes)
        self._shutdown = threading.Event()

    # ------------------------------------------------------------------

    @property
    def session(self):
        """The shared :class:`repro.api.Session` behind the dispatcher."""
        return self.dispatcher.session

    @property
    def shutdown_requested(self) -> bool:
        """Whether a ``shutdown`` verb asked the transport to drain."""
        return self._shutdown.is_set()

    def request_shutdown(self) -> None:
        """Flip the shutdown flag (idempotent; also used for SIGTERM)."""
        self._shutdown.set()

    # ------------------------------------------------------------------

    def handle_line(self, line: Union[str, bytes],
                    request_id: str) -> Iterator[Dict]:
        """Decode and dispatch one raw request line.

        The all-weather entry point: framing failures (oversized line,
        malformed JSON, non-object payload) answer with a terminal
        ``error`` event instead of raising, exactly like verb-level
        failures inside :meth:`handle`.
        """
        try:
            payload = decode_line(line, self.max_line_bytes)
        except ValueError as exc:
            self.metrics.observe("invalid", 0.0, ok=False)
            yield error_event(request_id, str(exc))
            return
        yield from self.handle(payload, request_id)

    def handle(self, payload: Dict, request_id: str,
               deadline: Optional[float] = None) -> Iterator[Dict]:
        """Dispatch one decoded payload; never raises.

        Yields zero or more streamed events followed by exactly one
        terminal event (see :func:`repro.netserve.protocol.is_terminal`).
        ``request_id`` is the transport's fallback id, used when the
        payload carries no ``id`` of its own.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp (the
        TCP server stamps it at *admission*, so queue wait counts); a
        pipe-transport request's ``deadline_ms`` envelope field starts
        its clock here instead.  Cancellation is cooperative: the clock
        is checked between events pulled from the verb generator, so an
        expired request stops computing at the next event boundary and
        answers a terminal ``timeout`` event -- a request already past
        its deadline when a worker picks it up does no verb work at
        all.
        """
        verb = payload.get("verb", "batch")
        verb_label = verb if isinstance(verb, str) else "invalid"
        request_id = str(payload.get("id", request_id))
        start = time.perf_counter()
        observed = False

        def observe(ok: bool, timeout: bool = False) -> None:
            # Account *before* the terminal event leaves, so a client
            # that reads its answer and immediately scrapes ``metrics``
            # sees its own request counted.
            nonlocal observed
            if not observed:
                observed = True
                self.metrics.observe(verb_label,
                                     time.perf_counter() - start, ok=ok,
                                     timeout=timeout)

        def expired() -> bool:
            return deadline is not None and time.monotonic() >= deadline

        try:
            payload = dict(payload)
            deadline_ms = request_deadline(payload, pop=True)
            if deadline is None and deadline_ms is not None:
                deadline = time.monotonic() + deadline_ms / 1000.0
            events = self._dispatch(payload, request_id)
            while True:
                timed_out = expired()
                event = None
                if not timed_out:
                    try:
                        event = next(events)
                    except StopIteration:
                        break
                    # Re-check after the verb worked: a single slow
                    # event must still answer ``timeout``, not deliver
                    # a result its client has already given up on.
                    timed_out = expired()
                if timed_out:
                    events.close()
                    faults.record("deadline_timeouts")
                    observe(ok=False, timeout=True)
                    yield timeout_event(request_id, deadline_ms)
                    return
                if is_terminal(event):
                    observe(ok=True)
                yield event
        except (ValueError, RuntimeError) as exc:
            observe(ok=False)
            yield error_event(request_id, str(exc))
        else:
            observe(ok=True)  # defensive: a stream without a terminal

    # ------------------------------------------------------------------

    def _dispatch(self, payload: Dict, request_id: str) -> Iterator[Dict]:
        """The verb switch (operates on a private payload copy)."""
        # The priority envelope is transport-level: validate and strip
        # it here so verb-level schemas never see (and reject) it.
        request_priority(payload, pop=True)
        verb = payload.get("verb", "batch")
        if verb in ("batch", "evaluate"):
            body = {k: v for k, v in payload.items() if k != "verb"}
            request = BatchRequest.from_dict(body, default_id=request_id)
            if verb == "evaluate":
                yield from self.dispatcher.stream_batch(
                    request, parallel=self.parallel)
            else:
                yield self.dispatcher.run(request,
                                          parallel=self.parallel).to_dict()
        elif verb == "dse":
            request = DseRequest.from_dict(payload, default_id=request_id)
            if request.stream:
                yield from self.dispatcher.stream_dse(request,
                                                      parallel=self.parallel)
            else:
                yield self.dispatcher.run_dse(
                    request, parallel=self.parallel).to_dict()
        elif verb == "query":
            request = QueryRequest.from_dict(payload, default_id=request_id)
            yield self.dispatcher.run_query(request).to_dict()
        elif verb == "metrics":
            self._reject_body_fields(payload, "metrics")
            yield self.metrics_snapshot(request_id)
        elif verb == "shutdown":
            self._reject_body_fields(payload, "shutdown")
            self.request_shutdown()
            yield {"id": request_id, "verb": "shutdown", "event": "result",
                   "draining": True}
        else:
            raise ValueError(
                f"unknown verb {verb!r}; known: {', '.join(KNOWN_VERBS)}")

    @staticmethod
    def _reject_body_fields(payload: Dict, verb: str) -> None:
        """Envelope-only verbs reject stray body fields eagerly."""
        unknown = set(payload) - _BARE_VERB_FIELDS
        if unknown:
            raise ValueError(
                f"unknown {verb} request field(s) {sorted(unknown)}; "
                f"a {verb!r} request carries only "
                f"{sorted(_BARE_VERB_FIELDS | {'priority', 'deadline_ms'})}")

    def metrics_snapshot(self, request_id: Optional[str] = None) -> Dict:
        """The ``metrics`` answer: counters plus live cache-tier stats.

        Also used (without a request id) for the TCP server's periodic
        snapshot log, so the verb and the log report one data source.
        """
        return self.metrics.snapshot(
            request_id=request_id,
            cache_stats=self.session.cache.stats)
