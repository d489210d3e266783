"""Type-confused input fails closed, in Python and on the wire.

One strict rule set decodes every request: an integer is an
``operator.index`` value that is not a ``bool`` (numpy integers pass,
floats and numeric strings do not), a JSON boolean must be a ``bool``,
a query's name filter must be a ``str``, and ``area_budget`` must be a
finite positive number.  Each case below must be a ``ValueError`` from
the constructor or codec, and exactly one terminal ``error`` event over
:class:`repro.netserve.core.RequestHandler` -- after which the handler
still serves the next line.
"""

import json
import math

import numpy as np
import pytest

from repro.api import Scenario, Session
from repro.dse import DesignSpace
from repro.netserve.core import RequestHandler
from repro.service.dispatcher import BatchDispatcher
from repro.service.schema import BatchRequest, DseRequest, QueryRequest

LAYER = {"name": "T1", "H": 8, "R": 3, "C": 4, "M": 8}
BATCH = {"layers": [LAYER], "batch": 1, "dataflows": ["RS"],
         "pe_counts": [16]}
DSE = {"verb": "dse", "layers": [LAYER], "dataflows": ["RS"], "batch": 1,
       "pe_counts": [16], "rf_choices": [64]}

WIRE_CASES = {
    "stream-string": dict(DSE, stream="false"),
    "include-dominated-string": dict(DSE, include_dominated="false"),
    "equal-area-string": dict(DSE, equal_area="false"),
    "query-feasible-string": {"verb": "query", "feasible": "false"},
    "batch-float": dict(BATCH, batch=2.7),
    "layer-float": dict(BATCH, layers=[dict(LAYER, H=15.9)]),
    "sample-bool": dict(DSE, sample=True),
    "chunk-bool": dict(DSE, chunk=True),
    "area-budget-nan": dict(DSE, area_budget="nan"),
    "area-budget-inf": dict(DSE, area_budget="inf"),
    "query-limit-bool": {"verb": "query", "limit": True},
    "query-dataflow-int": {"verb": "query", "dataflow": 5},
    "query-dataflow-bool": {"verb": "query", "dataflow": True},
    "query-dataflow-list": {"verb": "query", "dataflow": ["RS"]},
    "query-workload-int": {"verb": "query", "workload": 7},
    "query-network-object": {"verb": "query", "network": {"name": "x"}},
    "query-objective-float": {"verb": "query", "objective": 1.5},
    "query-kind-bool": {"verb": "query", "kind": False},
    "query-commit-int": {"verb": "query", "commit": 1234567},
    "pe-counts-string": dict(BATCH, pe_counts=["256"]),
    "dse-pe-counts-string": dict(DSE, pe_counts=["256"]),
    "dse-batch-float": dict(DSE, batch=2.7),
}

PYTHON_CASES = {
    "scenario-pe-float": lambda: Scenario("alexnet-conv",
                                          pe_counts=(256.9,)),
    "scenario-pe-string": lambda: Scenario("alexnet-conv",
                                           pe_counts=["256"]),
    "scenario-batch-float": lambda: Scenario("alexnet-conv",
                                             batches=(2.7,)),
    "scenario-rf-bool": lambda: Scenario("alexnet-conv", rf_choices=[True]),
    "space-pe-bool": lambda: DesignSpace("alexnet-conv", pe_counts=[True]),
    "space-pe-string": lambda: DesignSpace("alexnet-conv",
                                           pe_counts=["256"]),
    "space-batch-float": lambda: DesignSpace("alexnet-conv",
                                             pe_counts=(16,), batch=2.7),
    "space-area-nan": lambda: DesignSpace("alexnet-conv", pe_counts=(16,),
                                          area_budget=math.nan),
    "space-area-inf": lambda: DesignSpace("alexnet-conv", pe_counts=(16,),
                                          area_budget=math.inf),
    "space-equal-area-string": lambda: DesignSpace(
        "alexnet-conv", pe_counts=(16,), equal_area="false"),
    "space-shape-float": lambda: DesignSpace("alexnet-conv",
                                             array_shapes=[(4.5, 4)]),
}


def _decode(spec: dict):
    verb = spec.get("verb", "batch")
    if verb == "dse":
        return DseRequest.from_dict(spec)
    if verb == "query":
        return QueryRequest.from_dict(spec)
    return BatchRequest.from_dict(spec)


@pytest.mark.parametrize("name", sorted(WIRE_CASES))
def test_wire_codec_rejects(name):
    with pytest.raises(ValueError):
        _decode(WIRE_CASES[name])


@pytest.mark.parametrize("name", sorted(PYTHON_CASES))
def test_python_constructor_rejects(name):
    with pytest.raises(ValueError):
        PYTHON_CASES[name]()


@pytest.fixture(scope="module")
def handler(tmp_path_factory):
    # A store, so the query cases fail on their fields rather than on a
    # missing store.
    store = tmp_path_factory.mktemp("hostile") / "hostile.db"
    with Session(parallel=False, store=store) as session:
        yield RequestHandler(BatchDispatcher(session), parallel=False)


@pytest.mark.parametrize("name", sorted(WIRE_CASES))
def test_wire_case_answers_one_error_and_keeps_serving(handler, name):
    line = json.dumps(dict(WIRE_CASES[name], id=name))
    events = list(handler.handle_line(line, "fallback"))
    assert len(events) == 1
    assert events[0]["event"] == "error" and events[0]["id"] == name
    after = list(handler.handle_line(json.dumps(dict(BATCH, id="after")),
                                     "fallback"))
    assert after[-1]["id"] == "after"
    assert after[-1]["feasible_cells"] == 1


def test_numpy_integers_stay_accepted():
    scenario = Scenario("alexnet-conv", batches=(np.int64(1),),
                        pe_counts=np.array([64, 256]),
                        rf_choices=(np.int32(512),))
    assert scenario.pe_counts == (64, 256)
    assert all(type(v) is int for v in scenario.pe_counts
               + scenario.batches + scenario.rf_choices)
    space = DesignSpace("alexnet-conv", pe_counts=np.array([16, 32]),
                        array_shapes=[(np.int64(4), np.int64(2))],
                        rf_choices=(np.int64(0),), batch=np.int64(1),
                        sample=np.int64(2), seed=np.int64(3))
    assert space.pe_counts == (16, 32) and space.array_shapes == ((4, 2),)
    assert all(type(v) is int for v in (*space.pe_counts, space.batch,
                                        space.sample, space.seed,
                                        *space.array_shapes[0]))
    assert DesignSpace("alexnet-conv", pe_counts=(16,),
                       area_budget=np.float64(5e4)).area_budget == 5e4
