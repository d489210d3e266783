"""Replay the golden wire-contract corpus (``tests/data/wire_contract.jsonl``).

Every recorded request line is answered again through
:meth:`repro.netserve.core.RequestHandler.handle_line`, in corpus order
(later lines see the cache state earlier lines left).  A valid line
must answer byte-identically to its recording; an invalid one must
answer exactly one terminal ``error`` event with the recorded id.  See
``tests/wire_contract.py`` for the corpus format and how to re-record.
"""

import json

import pytest

import wire_contract

RECORDS = wire_contract.load()


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    store = tmp_path_factory.mktemp("wire") / "wire.db"
    wire_contract.build_store(store)
    pairs = [(record["store"], record["line"]) for record in RECORDS]
    return [events for _, _, events in wire_contract.replay(pairs, store)]


def _label(index: int) -> str:
    line = RECORDS[index]["line"]
    try:
        request_id = json.loads(line).get("id", "")
    except (ValueError, AttributeError):
        request_id = ""
    return f"{index}-{str(request_id)[:24] or 'raw'}"


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=_label)
def test_line_keeps_its_contract(replayed, index):
    problem = wire_contract.check(RECORDS[index], replayed[index])
    assert not problem, problem


def test_corpus_covers_the_wire_surface():
    valid = [json.loads(r["line"]) for r in RECORDS if r["valid"]]
    verbs = {spec.get("verb", "batch") for spec in valid}
    assert verbs == {"batch", "evaluate", "dse", "query", "metrics",
                     "shutdown"}
    fields = set().union(*(spec for spec in valid))
    assert {"network", "layers", "space", "sample", "seed", "sampler",
            "stream", "chunk", "include_dominated", "priority",
            "deadline_ms", "id", "feasible", "kind", "commit", "run_id",
            "limit", "array_shapes", "area_budget", "equal_area",
            "metrics"} <= fields
    assert sum(not r["valid"] for r in RECORDS) >= 40
