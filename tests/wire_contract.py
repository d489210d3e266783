"""The golden wire-contract corpus: request lines and their recorded events.

``tests/data/wire_contract.jsonl`` holds one record per request line::

    {"store": false, "line": "<raw request line>", "valid": true,
     "events": [<event>, ...]}

``events`` are what :meth:`repro.netserve.core.RequestHandler.handle_line`
answered, normalized by :func:`stable` (wall-clock fields dropped).
Lines with ``"store": false`` run in order on one handler over a
storeless serial :class:`~repro.api.Session`, with the fallback id
``req-<n>`` (``n`` counting those lines from 1, as ``repro serve``
numbers its input) and a :data:`MAX_LINE_BYTES` line cap.  Lines with
``"store": true`` are ``query`` requests; they run on a second handler
over the fixed experiment store :func:`build_store` records.

The replay contract (``tests/test_wire_contract.py``):

* a valid line answers exactly its recorded events, byte for byte
  (key order included);
* an invalid line answers exactly one terminal ``error`` event carrying
  the recorded id (the message text may change).

Command line::

    PYTHONPATH=src python tests/wire_contract.py --write    # re-record
    python tests/wire_contract.py --requests > lines.jsonl  # storeless lines
    python tests/wire_contract.py --check < events.jsonl    # check a replay

``--requests`` and ``--check`` let the ``repro serve`` pipe transport
replay the storeless lines (``repro serve --serial --max-line-bytes``
with :data:`MAX_LINE_BYTES`).  Re-record only for a deliberate wire
change: the corpus exists to show that refactors do not make one.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

CORPUS = Path(__file__).parent / "data" / "wire_contract.jsonl"

#: The line cap both replays run with (small, so an oversized line fits
#: in the corpus).
MAX_LINE_BYTES = 8192

#: Top-level event fields that carry wall-clock readings.
_VOLATILE = ("elapsed_s", "uptime_s")

TINY = [{"name": "T1", "H": 8, "R": 3, "C": 4, "M": 8}]
TINY2 = [{"name": "T2", "H": 10, "R": 3, "C": 8, "M": 4, "U": 1, "N": 1}]
GROUPED = [{"name": "G1", "H": 10, "R": 3, "C": 8, "M": 8, "groups": 4},
           {"name": "D1", "H": 11, "R": 3, "C": 8, "M": 8, "dilation": 2}]
BATCH = {"layers": TINY, "batch": 1, "dataflows": ["RS"],
         "pe_counts": [16, 64]}
DSE = {"verb": "dse", "layers": TINY, "dataflows": ["RS"], "batch": 1,
       "pe_counts": [16], "rf_choices": [64], "glb_choices": [8192]}

#: The fixed store's recorded grid (:func:`build_store`).
STORE_GRID = dict(workload="transformer", batches=(1,), pe_counts=(64, 256))


def _deck(seed: int = 1) -> list:
    """The ``serve-mixed`` benchmark deck for ``seed``, rebuilt here so
    the corpus does not depend on the benchmark's files."""
    dataflows = ("RS", "WS", "OSA", "OSB", "OSC", "NLR")
    rng = random.Random(f"serve-mixed/{seed}")
    layers = [{"name": f"S{index}", "H": rng.choice((8, 10, 12, 14)),
               "R": 3, "C": rng.choice((4, 8, 16)),
               "M": rng.choice((4, 8, 16))} for index in range(8)]

    def grid():
        return {"layers": rng.sample(layers, 2), "batch": 1,
                "dataflows": rng.sample(dataflows, 2),
                "pe_counts": sorted(rng.sample((16, 32, 64, 128), 2))}

    deck = []
    for _ in range(5):
        deck.append({"verb": "evaluate", **grid()})
        deck.append({"verb": "batch", **grid()})
    for _ in range(3):
        deck.append({"verb": "dse", "layers": rng.sample(layers, 1),
                     "batch": 1, "dataflows": rng.sample(dataflows, 2),
                     "pe_counts": sorted(rng.sample((16, 32, 64), 2)),
                     "rf_choices": [64, 128], "glb_choices": [8192, 16384],
                     "stream": True})
        deck.append({"verb": "query", "workload": "transformer",
                     "dataflow": rng.choice(dataflows)})
    rng.shuffle(deck)
    return [dict(spec, id=f"deck-{index}") for index, spec in enumerate(deck)]


def requests() -> list:
    """``(store, line)`` pairs, in corpus order."""
    j = json.dumps
    lines = [
        # -- batch (default verb), both workload forms --------------------
        j({"id": "b-net", "network": "alexnet-fc", "batch": 1,
           "dataflows": ["RS", "WS"], "pe_counts": [64]}),
        j(BATCH),
        j(dict(BATCH, id="b-verb", verb="batch", dataflows=["rs", "nlr"],
               rf_choices=[256, 512], objective="EDP")),
        j(dict(BATCH, id="b-scalar", pe_counts=16, rf_choices=512)),
        j(dict(BATCH, id="b-prune", pe_counts=[1024],
               rf_choices=[512, 16384])),
        j({"id": "b-all", "layers": TINY2}),
        j(dict(BATCH, id="b-objective", objective="dram",
               dataflows=["WS", "OSA"])),
        # -- evaluate (streamed batch) ------------------------------------
        j({"verb": "evaluate", "id": "e-grouped", "layers": GROUPED,
           "batch": 1, "dataflows": ["RS", "NLR"], "pe_counts": [16, 64]}),
        j({"verb": "evaluate", "id": "e-net", "network": "alexnet-fc",
           "batch": 1, "dataflows": ["RS"], "pe_counts": [64, 256]}),
        # -- envelope fields ----------------------------------------------
        j(dict(BATCH, id="env", priority=3, deadline_ms=600000)),
        j(dict(BATCH, verb="evaluate", priority=-2)),
        # -- dse ------------------------------------------------------------
        j(dict(DSE, id="d-plain")),
        j(dict(DSE, id="d-stream", rf_choices=[64, 128],
               glb_choices=[8192, 16384], stream=True, chunk=2)),
        j(dict(DSE, id="d-dominated", rf_choices=[64, 128],
               include_dominated=True)),
        j(dict(DSE, id="d-stream-off", stream=False, include_dominated=False,
               chunk=None)),
        j({"verb": "dse", "id": "d-net", "network": "alexnet-fc",
           "batch": 1, "dataflows": ["RS", "WS"], "pe_counts": [16, 64],
           "rf_choices": [64, 128], "equal_area": True,
           "objective": "edp"}),
        j({"verb": "dse", "id": "d-shapes", "layers": TINY2, "batch": 1,
           "array_shapes": [[4, 4], [2, 8]], "rf_choices": [0, 64, 128],
           "glb_choices": [4096, 8192], "area_budget": 25000.0,
           "metrics": ["energy_per_op", "area"], "dataflows": "RS"}),
        j({"verb": "dse", "id": "d-sample", "layers": TINY2, "batch": 1,
           "dataflows": ["RS", "WS"], "pe_counts": [16, 32, 64],
           "rf_choices": [64, 128, 256], "glb_choices": [8192, 16384],
           "sample": 5, "seed": 3, "sampler": "halton", "stream": True,
           "chunk": 2}),
        j({"verb": "dse", "id": "d-space", "space": "chip-neighborhood"}),
        j({"verb": "dse", "id": "d-space-sampled",
           "space": "chip-neighborhood", "sample": 3, "seed": 1,
           "sampler": "halton", "include_dominated": True}),
        j({"verb": "dse", "id": "d-space-random", "space": "equal-area-grid",
           "sample": 2, "seed": 7, "stream": True}),
    ]
    lines += [j(spec) for spec in _deck() if spec["verb"] != "query"]
    invalid = [
        "{not json",
        "[1, 2, 3]",
        '"a string"',
        j({"id": "x" * MAX_LINE_BYTES, **BATCH}),
        j({"verb": "frobnicate", "id": "bad-verb"}),
        j({"verb": 7, "id": "bad-verb-type"}),
        j(dict(BATCH, id="bad-priority", priority="high")),
        j(dict(BATCH, id="bad-deadline", deadline_ms=-1)),
        j(dict(BATCH, id="bad-deadline-bool", deadline_ms=True)),
        j(dict(BATCH, id="bad-deadline-list", deadline_ms=[250])),
        j({"id": "b-none"}),
        j({"id": "b-both", "network": "alexnet", "layers": TINY}),
        j({"id": "b-lenet", "network": "lenet"}),
        j({"id": "b-df", "network": "alexnet", "dataflows": ["XX"]}),
        j({"id": "b-obj", "network": "alexnet", "objective": "speed"}),
        j({"id": "b-pes-empty", "network": "alexnet", "pe_counts": []}),
        j({"id": "b-pes-zero", "network": "alexnet", "pe_counts": [0]}),
        j({"id": "b-pes-str", "network": "alexnet", "pe_counts": "256"}),
        j({"id": "b-pes-float", "network": "alexnet", "pe_counts": [1.5]}),
        j({"id": "b-rf-str", "network": "alexnet", "rf_choices": "512"}),
        j({"id": "b-batch-zero", "network": "alexnet", "batch": 0}),
        j({"id": "b-batch-null", "network": "alexnet-conv", "batch": None}),
        j({"id": "b-df-int", "network": "alexnet-conv", "dataflows": 7}),
        j({"id": "b-typo", "network": "alexnet", "typo": 1}),
        j({"id": "b-layers-empty", "layers": []}),
        j({"id": "b-layer-missing", "layers": [{"name": "x", "H": 5}]}),
        j({"id": "b-layer-unknown", "layers": [
            {"name": "x", "H": 5, "R": 3, "C": 1, "M": 1, "weird": 9}]}),
        j({"id": "b-layer-null", "layers": [
            {"name": "T", "H": None, "R": 3, "C": 4, "M": 8}]}),
        j({"verb": "evaluate", "id": "e-groups", "batch": 1,
           "dataflows": ["RS"], "pe_counts": [16],
           "layers": [{"name": "B", "H": 9, "R": 3, "C": 6, "M": 8,
                       "groups": 4}]}),
        j(dict(BATCH, id="b-empty-grid", pe_counts=[1024],
               rf_choices=[16384])),
        j({"verb": "dse", "id": "d-conflict", "space": "equal-area-grid",
           "pe_counts": [16]}),
        j(dict(DSE, id="d-unknown", pes=[16])),
        j({"verb": "dse", "id": "d-nospace", "space": "nope"}),
        j({"verb": "dse", "id": "d-noworkload", "pe_counts": [16]}),
        j(dict(DSE, id="d-rf-str", rf_choices="512")),
        j(dict(DSE, id="d-glb-str", glb_choices="8192")),
        j(dict(DSE, id="d-batch-null", batch=None)),
        j(dict(DSE, id="d-df-int", dataflows=7)),
        j(dict(DSE, id="d-shape-null", array_shapes=[[4, None]])),
        j(dict(DSE, id="d-metrics-int", metrics=3)),
        j(dict(DSE, id="d-pes-null", pe_counts=[None])),
        j({"verb": "dse", "id": "d-layer-null", "pe_counts": [16],
           "layers": [{"name": "T", "H": None, "R": 3, "C": 4, "M": 8}]}),
        j(dict(DSE, id="d-chunk-zero", chunk=0)),
        j({"verb": "dse", "id": "d-empty", "layers": TINY, "batch": 1,
           "dataflows": ["RS"], "pe_counts": [16], "rf_choices": [65536],
           "equal_area": True}),
        j({"verb": "query", "id": "q-nostore"}),
        j({"verb": "metrics", "id": "m-body", "network": "alexnet"}),
        j({"verb": "shutdown", "id": "s-body", "now": True}),
    ]
    lines += invalid
    lines.append(j({"verb": "metrics", "id": "metrics"}))
    lines.append(j({"verb": "shutdown", "id": "bye"}))  # last: ends serve
    queries = [
        {"verb": "query", "id": "q-all"},
        {"verb": "query", "id": "q-workload", "workload": "transformer",
         "limit": 3},
        {"verb": "query", "id": "q-network", "network": "custom"},
        {"verb": "query", "id": "q-dataflow", "dataflow": "WS",
         "kind": "grid"},
        {"verb": "query", "id": "q-batch", "batch": 1, "num_pes": 64,
         "limit": 4},
        {"verb": "query", "id": "q-rf", "rf_bytes_per_pe": 64},
        {"verb": "query", "id": "q-objective", "objective": "energy",
         "kind": "dse"},
        {"verb": "query", "id": "q-feasible", "feasible": True,
         "workload": "custom"},
        {"verb": "query", "id": "q-infeasible", "feasible": False},
        {"verb": "query", "id": "q-run", "run_id": 1, "limit": 2},
        {"verb": "query", "id": "q-commit", "commit": "0" * 40},
        {"verb": "query", "id": "q-priority", "priority": 1,
         "deadline_ms": 600000, "kind": "dse", "limit": 1},
        {"verb": "query", "id": "q-typo", "pes": 64},
        {"verb": "query", "id": "q-both", "network": "a", "workload": "b"},
        {"verb": "query", "id": "q-limit-str", "limit": "5"},
    ]
    queries += [spec for spec in _deck() if spec["verb"] == "query"]
    return ([(False, line) for line in lines]
            + [(True, j(spec)) for spec in queries])


def stable(event: dict) -> dict:
    """``event`` without the fields that differ from run to run.

    Drops the wall-clock readings (``elapsed_s``, ``uptime_s``) and the
    store rows' ``commit_sha``; a ``metrics`` snapshot also loses its
    latency, utilization and process-wide fault figures.
    """
    out = {key: value for key, value in event.items()
           if key not in _VOLATILE}
    if isinstance(out.get("rows"), list):
        out["rows"] = [{key: value for key, value in row.items()
                        if key != "commit_sha"} for row in out["rows"]]
    if out.get("verb") == "metrics" and "requests" in out:
        out.pop("faults", None)
        out["workers"] = {key: value for key, value in out["workers"].items()
                          if key != "utilization"}
        out["requests"] = dict(out["requests"], by_verb={
            verb: {"count": entry["count"], "errors": entry["errors"],
                   "timeouts": entry["timeouts"]}
            for verb, entry in out["requests"]["by_verb"].items()})
    return out


def build_store(path) -> None:
    """Record the fixed store the ``query`` lines read: one grid run and
    one small exploration."""
    from repro.api import Scenario, Session
    from repro.dse import DesignSpace
    from repro.nn.layer import conv_layer

    layers = (conv_layer("T1", H=8, R=3, E=6, C=4, M=8),)
    with Session(parallel=False, store=path, record="wire-contract") \
            as session:
        session.evaluate(Scenario(**STORE_GRID))
        session.evaluate(Scenario(layers, dataflows=("RS", "WS"),
                                  batches=(1,), pe_counts=(16, 64)))
        session.explore(DesignSpace(
            layers, dataflows=("RS",), batch=1, pe_counts=(16,),
            rf_choices=(64, 128, 65536), glb_choices=(8192,)))


def handlers(store_path):
    """The (storeless, store) handler pair the corpus runs on."""
    from repro.api import Session
    from repro.netserve.core import RequestHandler
    from repro.service.dispatcher import BatchDispatcher

    plain = Session(parallel=False)
    stored = Session(parallel=False, store=store_path)
    return (RequestHandler(BatchDispatcher(plain), parallel=False,
                           max_line_bytes=MAX_LINE_BYTES),
            RequestHandler(BatchDispatcher(stored), parallel=False,
                           max_line_bytes=MAX_LINE_BYTES))


def replay(pairs, store_path):
    """Run ``(store, line)`` pairs; yields ``(store, line, events)``."""
    plain, stored = handlers(store_path)
    numbers = {False: 0, True: 0}
    try:
        for store, line in pairs:
            numbers[store] += 1
            handler = stored if store else plain
            events = [stable(event) for event in
                      handler.handle_line(line, f"req-{numbers[store]}")]
            yield store, line, events
    finally:
        plain.session.close()
        stored.session.close()


def load() -> list:
    """The recorded corpus, one dict per request line."""
    with CORPUS.open() as corpus:
        return [json.loads(line) for line in corpus if line.strip()]


def check(record: dict, events: list) -> str:
    """Why ``events`` break ``record``'s contract (empty when they don't)."""
    if record["valid"]:
        if json.dumps(events) != json.dumps(record["events"]):
            return f"answer changed:\n  was {record['events']}\n  now {events}"
        return ""
    want = record["events"][0]["id"]
    if (len(events) != 1 or events[0].get("event") != "error"
            or events[0].get("id") != want):
        return f"expected one error event with id {want!r}, got {events}"
    return ""


def _write() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "wire.db"
        build_store(store)
        records = []
        for store_line, line, events in replay(requests(), store):
            valid = events[-1].get("event") != "error"
            records.append({"store": store_line, "line": line,
                            "valid": valid, "events": events})
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w") as out:
        for record in records:
            out.write(json.dumps(record) + "\n")
    print(f"wrote {len(records)} records to {CORPUS}", file=sys.stderr)


def _check_stream() -> int:
    """Check ``repro serve`` output on stdin against the storeless lines."""
    from repro.netserve.protocol import is_terminal

    events = [stable(json.loads(line)) for line in sys.stdin if line.strip()]
    failures = 0
    position = 0
    for record in load():
        if record["store"]:
            continue
        answer = []
        while position < len(events):
            answer.append(events[position])
            position += 1
            if is_terminal(answer[-1]):
                break
        problem = check(record, answer)
        if problem:
            failures += 1
            print(f"{record['line'][:80]}: {problem}", file=sys.stderr)
    if position != len(events):
        failures += 1
        print(f"{len(events) - position} unexpected trailing event(s)",
              file=sys.stderr)
    print(f"wire contract: {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "--write":
        _write()
    elif mode == "--requests":
        for entry in load():
            if not entry["store"]:
                print(entry["line"])
    elif mode == "--check":
        sys.exit(_check_stream())
    else:
        sys.exit(__doc__)
