"""Batch evaluation service: the scale tier over the engine.

``repro.service`` answers *grids* of evaluation problems instead of
single calls.  Its request types are thin envelopes -- an ``id`` and
delivery options -- around the objects that own their wire form: a
:class:`~repro.service.schema.BatchRequest` wraps a
:class:`repro.api.Scenario` (a reference network or explicit layers, a
set of dataflows, a hardware grid and an objective, decoded by
:meth:`~repro.api.Scenario.from_dict`), so the Python API, the CLI and
the wire validate through one codec.  The
:class:`~repro.service.dispatcher.BatchDispatcher` evaluates the
scenario as deduplicated engine jobs through the shared
:class:`~repro.engine.core.EvaluationEngine` and answers with a
:class:`~repro.service.schema.BatchResult` of :class:`repro.api.Result`
rows (rendered by :func:`~repro.service.schema.wire_cell`) plus the
request's cache traffic.

The JSON-lines loop also speaks a ``dse`` verb: a
:class:`~repro.service.schema.DseRequest` wraps a
:class:`repro.dse.DesignSpace` (decoded by
:meth:`~repro.dse.DesignSpace.from_dict`), runs the exploration on the
same session and answers with a
:class:`~repro.service.schema.DseResult` carrying the Pareto front.

The ``query`` verb reads recorded cells back out of the session's
SQLite experiment store (:mod:`repro.store`): a
:class:`~repro.service.schema.QueryRequest` filters the ``cells``
table and answers with a :class:`~repro.service.schema.QueryResult`,
safely concurrent with a recording sweep thanks to the store's
WAL-mode single-writer / multi-reader discipline.

Persistence is the experiment store's warm tier: a session opened with
``--store`` (or the ``REPRO_STORE`` fallback re-exported here from
:mod:`repro.store.db`) answers repeated grids from disk across process
restarts, which is what makes repeated design-space retrospectives
cheap.  :mod:`repro.service.server` is the stdin/stdout JSON-lines loop behind
``repro serve``.
"""

from repro.service.dispatcher import BatchDispatcher
from repro.service.schema import (
    BatchRequest,
    BatchResult,
    DseRequest,
    DseResult,
    QueryRequest,
    QueryResult,
    parse_requests,
    wire_cell,
)
from repro.service.server import serve
from repro.store.db import STORE_ENV, default_store_path

__all__ = [
    "BatchDispatcher",
    "BatchRequest",
    "BatchResult",
    "DseRequest",
    "DseResult",
    "QueryRequest",
    "QueryResult",
    "STORE_ENV",
    "default_store_path",
    "parse_requests",
    "serve",
    "wire_cell",
]
