"""Request/response envelopes of the batch evaluation service.

The service speaks three request verbs, all plain JSON.  Each request
is an envelope -- ``id`` plus delivery options -- around one request
object that decodes itself, so the Python API, the CLI and the wire
share one validating codec:

* ``batch`` (the default) -- a :class:`BatchRequest` wraps a
  :class:`repro.api.Scenario` (its wire form is
  :meth:`~repro.api.Scenario.from_dict`): a grid of evaluation problems,
  (network | explicit layer list) x dataflows x hardware points x
  objective.  The dispatcher (:mod:`repro.service.dispatcher`) answers
  with a :class:`BatchResult`: one :class:`repro.api.Result` row per
  grid cell (rendered by :func:`wire_cell`) plus the cache traffic the
  request generated.
* ``dse`` -- a :class:`DseRequest` wraps a :class:`repro.dse.DesignSpace`
  (:meth:`~repro.dse.DesignSpace.from_dict`: a registered space name or
  inline grid fields) and is answered with a :class:`DseResult`
  carrying the Pareto front.
* ``query`` -- a :class:`QueryRequest` filters the session's SQLite
  experiment store (:mod:`repro.store`) and is answered with a
  :class:`QueryResult` of recorded cell rows -- the WAL-mode store
  makes this safe while another client's sweep is still recording.

Everything validates eagerly with clear ``ValueError`` messages, under
one strict typing rule (:func:`repro.registry.as_int` and friends), so
a malformed spec fails at the service boundary (CLI exit code 2, or an
``error`` line in serve mode) instead of deep inside the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import Result, Scenario
from repro.dse import DesignSpace, ParetoSet
from repro.engine.cache import CacheStats
from repro.registry import as_bool, as_int, as_str, check_fields


def _request_id(data, default_id: str) -> str:
    if not isinstance(data, dict):
        raise ValueError(f"a request must be an object, got {data!r}")
    return str(data.get("id", default_id))


@dataclass(frozen=True)
class BatchRequest:
    """One grid of evaluation problems, as submitted by a client."""

    request_id: str
    scenario: Scenario

    @classmethod
    def from_dict(cls, data: Dict, default_id: str = "req") -> "BatchRequest":
        """Decode a request object: ``id`` plus a scenario's wire form."""
        request_id = _request_id(data, default_id)
        body = {key: value for key, value in data.items() if key != "id"}
        return cls(request_id, Scenario.from_dict(body))

    def to_dict(self) -> Dict:
        """The JSON wire form of this request."""
        return {"id": self.request_id, **self.scenario.to_dict()}


def wire_cell(row: Result) -> Dict:
    """The JSON wire form of one grid cell (metrics only when feasible)."""
    data: Dict = {
        "dataflow": row.dataflow,
        "pes": row.num_pes,
        "rf_bytes_per_pe": row.rf_bytes_per_pe,
        "batch": row.batch,
        "objective": row.objective,
        "feasible": row.feasible,
    }
    if row.feasible:
        data.update(
            energy_per_op=row.energy_per_op,
            delay_per_op=row.delay_per_op,
            edp_per_op=row.edp_per_op,
            dram_accesses_per_op=row.dram_accesses_per_op,
        )
    return data


@dataclass(frozen=True)
class BatchResult:
    """The service's answer to one :class:`BatchRequest`."""

    request_id: str
    cells: Tuple[Result, ...]
    layer_jobs: int
    elapsed_s: float
    cache: CacheStats = field(default_factory=lambda: CacheStats(0, 0, 0))

    @property
    def feasible_cells(self) -> int:
        """Number of grid cells with at least one valid mapping."""
        return sum(1 for cell in self.cells if cell.feasible)

    def to_dict(self) -> Dict:
        """The JSON wire form of this result."""
        return {
            "id": self.request_id,
            "cells": [wire_cell(cell) for cell in self.cells],
            "layer_jobs": self.layer_jobs,
            "feasible_cells": self.feasible_cells,
            "elapsed_s": self.elapsed_s,
            "cache": _cache_dict(self.cache),
        }


def _cache_dict(stats: CacheStats) -> Dict:
    """The JSON wire form of cache counters, split by tier."""
    return {
        "hits": stats.hits,
        "store_hits": stats.store_hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "size": stats.size,
        "evictions": stats.evictions,
    }


#: The envelope fields of a ``dse`` request; the rest is the space.
_DSE_ENVELOPE = ("id", "verb", "include_dominated", "stream", "chunk")


@dataclass(frozen=True)
class DseRequest:
    """One design-space exploration, as submitted by a client."""

    request_id: str
    space: DesignSpace
    include_dominated: bool = False
    #: Stream per-candidate/progress lines instead of one result line.
    stream: bool = False
    #: Candidates per streamed evaluation chunk (None: the dse default).
    chunk: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Dict, default_id: str = "dse") -> "DseRequest":
        """Decode a ``{"verb": "dse", ...}`` wire object.

        The envelope fields (``id``, ``include_dominated``, ``stream``,
        ``chunk``) are read here; everything else is the space's wire
        form, decoded by :meth:`repro.dse.DesignSpace.from_dict`.
        """
        request_id = _request_id(data, default_id)
        verb = data.get("verb", "dse")
        if verb != "dse":
            raise ValueError(f"not a dse request (verb {verb!r})")
        chunk = data.get("chunk")
        return cls(
            request_id=request_id,
            space=DesignSpace.from_dict(
                {key: value for key, value in data.items()
                 if key not in _DSE_ENVELOPE}),
            include_dominated=as_bool(data.get("include_dominated", False),
                                      "include_dominated"),
            stream=as_bool(data.get("stream", False), "stream"),
            chunk=None if chunk is None else as_int(chunk, "chunk",
                                                    minimum=1))

    def to_dict(self) -> Dict:
        """The JSON wire form of this request."""
        data: Dict = {"id": self.request_id, "verb": "dse",
                      **self.space.to_dict()}
        if self.include_dominated:
            data["include_dominated"] = True
        if self.stream:
            data["stream"] = True
        if self.chunk is not None:
            data["chunk"] = self.chunk
        return data


@dataclass(frozen=True)
class DseResult:
    """The service's answer to one :class:`DseRequest`."""

    request_id: str
    pareto: ParetoSet
    elapsed_s: float
    include_dominated: bool = False
    cache: CacheStats = field(default_factory=lambda: CacheStats(0, 0, 0))

    @property
    def front_size(self) -> int:
        """Number of non-dominated points on the frontier."""
        return len(self.pareto.frontier)

    def to_dict(self) -> Dict:
        """The JSON wire form: frontier rows plus exploration stats.

        ``candidates``/``feasible_candidates`` count what was
        *evaluated* -- for large streamed spaces that can exceed the
        retained rows ``include_dominated=True`` would export.
        """
        return {
            "id": self.request_id,
            "verb": "dse",
            "metrics": list(self.pareto.metrics),
            "front": self.pareto.to_dicts(
                include_dominated=self.include_dominated),
            "front_size": self.front_size,
            "candidates": self.pareto.num_evaluated,
            "feasible_candidates": self.pareto.num_feasible,
            "elapsed_s": self.elapsed_s,
            "cache": _cache_dict(self.cache),
        }


#: The filter fields a query request may carry (exact-match columns of
#: the store's ``cells`` view, plus ``limit``).
_QUERY_FILTER_FIELDS = ("workload", "network", "dataflow", "batch",
                        "num_pes", "rf_bytes_per_pe", "objective",
                        "feasible", "kind", "run_id", "commit", "limit")
_QUERY_FIELDS = ("id", "verb", *_QUERY_FILTER_FIELDS)


@dataclass(frozen=True)
class QueryRequest:
    """One experiment-store query, as submitted by a client.

    ``filters`` hold validated keyword arguments for
    :meth:`repro.store.db.ExperimentStore.query_cells`; every field is
    an exact match on its recorded column.
    """

    request_id: str
    filters: Dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict,
                  default_id: str = "query") -> "QueryRequest":
        """Decode a ``{"verb": "query", ...}`` wire object.

        ``network`` is accepted as an alias for ``workload`` (matching
        the batch verb's vocabulary); unknown fields are rejected.
        Integer filters must be JSON integers, ``feasible`` a JSON
        boolean and the name filters (``workload``, ``dataflow``,
        ``objective``, ``kind``, ``commit``) JSON strings; ``null``
        leaves a filter unset.
        """
        check_fields(data, _QUERY_FIELDS, "query")
        verb = data.get("verb", "query")
        if verb != "query":
            raise ValueError(f"not a query request (verb {verb!r})")
        if "workload" in data and "network" in data:
            raise ValueError(
                "set either 'workload' or its alias 'network', not both")
        given = {name: value for name, value in data.items()
                 if value is not None and name not in ("id", "verb")}
        filters: Dict = {}
        for name, value in given.items():
            if name in ("batch", "num_pes", "rf_bytes_per_pe", "run_id",
                        "limit"):
                filters[name] = as_int(value, name)
            elif name == "feasible":
                filters[name] = as_bool(value, name)
            else:
                filters["workload" if name == "network" else name] = \
                    as_str(value, name)
        return cls(request_id=_request_id(data, default_id),
                   filters=filters)

    def to_dict(self) -> Dict:
        """The JSON wire form of this request."""
        return {"id": self.request_id, "verb": "query", **self.filters}


@dataclass(frozen=True)
class QueryResult:
    """The service's answer to one :class:`QueryRequest`."""

    request_id: str
    rows: Tuple[Dict, ...]
    elapsed_s: float

    def to_dict(self) -> Dict:
        """The JSON wire form: recorded cell rows in recording order."""
        return {
            "id": self.request_id,
            "verb": "query",
            "rows": [dict(row) for row in self.rows],
            "count": len(self.rows),
            "elapsed_s": self.elapsed_s,
        }


def parse_requests(payload) -> List[BatchRequest]:
    """Decode a spec payload: one request object or a list of them."""
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise ValueError(
            "a batch spec must be a request object or a non-empty list "
            "of request objects")
    return [BatchRequest.from_dict(entry, default_id=f"req-{index}")
            for index, entry in enumerate(payload)]
