"""Request dispatch: envelopes in, wire results out.

The dispatcher is the service's adapter over the unified facade: each
:class:`~repro.service.schema.BatchRequest` carries a
:class:`repro.api.Scenario`, answered through a
:class:`repro.api.Session` (one deduplicated engine batch, so a grid of
G cells over L layers fans out as at most G x L layer evaluations,
minus everything the cache already covers), and the resulting
:class:`repro.api.Result` rows become the :class:`BatchResult`.  A
:class:`~repro.service.schema.DseRequest` carries a
:class:`repro.dse.DesignSpace` explored on the same session.
Per-request cache traffic is measured as a stats delta and reported in
each result.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.api import EmptyScenarioError, Scenario, Session, default_session
from repro.dse import EmptyDesignSpaceError
from repro.engine.core import EvaluationEngine
from repro.service.schema import (
    BatchRequest,
    BatchResult,
    DseRequest,
    DseResult,
    QueryRequest,
    QueryResult,
    wire_cell,
)


def scenario_from_request(request: BatchRequest) -> Scenario:
    """The facade-level description of one request's grid."""
    return request.scenario


class BatchDispatcher:
    """Runs service requests on a facade session."""

    def __init__(self, session: Optional[Session] = None) -> None:
        self.session = session if session is not None else default_session()

    @property
    def engine(self) -> EvaluationEngine:
        """The engine behind this dispatcher's session."""
        return self.session.engine

    def _batch_result(self, request_id: str, rows, start: float,
                      before) -> BatchResult:
        """Fold grid-ordered rows into the answer to one request."""
        return BatchResult(
            request_id=request_id,
            cells=tuple(rows),
            layer_jobs=sum(len(row.evaluation.layers) for row in rows),
            elapsed_s=time.perf_counter() - start,
            cache=self.session.cache.stats.since(before),
        )

    def _dse_result(self, request: DseRequest, pareto, start: float,
                    before) -> DseResult:
        """Fold an exploration's frontier into the answer to one request."""
        return DseResult(
            request_id=request.request_id,
            pareto=pareto,
            elapsed_s=time.perf_counter() - start,
            include_dominated=request.include_dominated,
            cache=self.session.cache.stats.since(before),
        )

    def run(self, request: BatchRequest,
            parallel: Optional[bool] = None) -> BatchResult:
        """Evaluate and aggregate one request."""
        start = time.perf_counter()
        before = self.session.cache.stats
        try:
            results = self.session.evaluate(request.scenario,
                                            parallel=parallel)
        except EmptyScenarioError as exc:
            raise ValueError(
                f"request {request.request_id!r} {exc}") from None
        return self._batch_result(request.request_id, results.rows, start,
                                  before)

    def stream_batch(self, request: BatchRequest,
                     parallel: Optional[bool] = None):
        """Serve one batch grid as a stream of wire events.

        The generator behind the service's ``evaluate`` verb: one
        ``{"event": "cell", ...}`` object per grid cell as it completes
        (completion order under a parallel session, grid order under a
        serial one), then a final ``{"event": "result", ...}`` object
        whose content -- cells back in grid order, layer-job count,
        cache delta -- is exactly what :meth:`run` would have answered
        for the same request.  Streaming changes the delivery, never
        the numbers.
        """
        start = time.perf_counter()
        before = self.session.cache.stats
        request_id = request.request_id
        rows: dict = {}
        try:
            for index, row in self.session.stream_indexed(
                    request.scenario, parallel=parallel):
                rows[index] = row
                yield {"id": request_id, "verb": "evaluate",
                       "event": "cell", "index": index, **wire_cell(row)}
        except EmptyScenarioError as exc:
            raise ValueError(
                f"request {request_id!r} {exc}") from None
        result = self._batch_result(
            request_id, [rows[index] for index in sorted(rows)], start,
            before)
        yield {"verb": "evaluate", "event": "result", **result.to_dict()}

    def run_dse(self, request: DseRequest,
                parallel: Optional[bool] = None) -> DseResult:
        """Serve one design-space exploration (the ``dse`` verb).

        The space is explored through the same session (and therefore
        the same cache tiers and pools) as the batch verb, so a DSE job
        re-visiting hardware points a batch grid already evaluated --
        or vice versa -- answers from the cache.
        """
        start = time.perf_counter()
        before = self.session.cache.stats
        try:
            pareto = self.session.explore(request.space, parallel=parallel,
                                          chunk=request.chunk)
        except EmptyDesignSpaceError as exc:
            raise ValueError(
                f"dse request {request.request_id!r} {exc}") from None
        return self._dse_result(request, pareto, start, before)

    def stream_dse(self, request: DseRequest,
                   parallel: Optional[bool] = None):
        """Serve one exploration as a stream of wire events.

        The generator behind ``{"verb": "dse", "stream": true}``: one
        ``{"event": "candidate", ...}`` object per evaluated candidate
        (in completion order), an ``{"event": "progress", ...}``
        introspection object after every chunk (done/total/frontier
        size/elapsed), and finally the same result object
        :meth:`run_dse` would have answered with, tagged
        ``"event": "result"``.  The frontier is bit-identical to the
        non-streamed verb -- only the delivery changes.
        """
        from repro.dse import explore_stream

        start = time.perf_counter()
        before = self.session.cache.stats
        request_id = request.request_id
        try:
            for kind, payload in explore_stream(
                    request.space, session=self.session, parallel=parallel,
                    chunk=request.chunk):
                if kind == "candidate":
                    yield {"id": request_id, "verb": "dse",
                           "event": "candidate", **payload.to_dict()}
                elif kind == "progress":
                    yield {"id": request_id, "verb": "dse",
                           "event": "progress", **payload}
                else:
                    result = self._dse_result(request, payload, start,
                                              before)
                    yield {"event": "result", **result.to_dict()}
        except EmptyDesignSpaceError as exc:
            raise ValueError(
                f"dse request {request_id!r} {exc}") from None

    def run_query(self, request: QueryRequest) -> QueryResult:
        """Serve one experiment-store query (the ``query`` verb).

        Reads the session's attached :class:`repro.store.db.ExperimentStore`
        through its own reader connection, so queries stay answerable
        while a recording sweep holds the writer -- the WAL multi-reader
        guarantee the service tier relies on.
        """
        start = time.perf_counter()
        store = getattr(self.session, "store", None)
        if store is None:
            raise ValueError(
                f"query request {request.request_id!r} needs an "
                f"experiment store; start the service with --store (or "
                f"set REPRO_STORE)")
        rows = store.query_cells(**request.filters)
        return QueryResult(
            request_id=request.request_id,
            rows=tuple(rows),
            elapsed_s=time.perf_counter() - start,
        )
