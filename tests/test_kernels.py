"""Parity suite: the vectorized mapping-search kernel vs the scalar path.

The hard contract of :mod:`repro.kernels` is *bit-identical* results:
for every (dataflow, layer, hardware, objective) cell the vectorized
search must return the same winning :class:`Mapping` (field for field),
the same objective score (to the last float bit) and the same candidate
count as the streaming scalar reduction.  This suite pins that across
all six dataflows x AlexNet/VGG16/ResNet-18 layers x a fixed hardware
grid, plus the dispatch rules (custom objectives fall back to the
scalar path; ``REPRO_KERNEL`` overrides are honored).
"""

import random
import re
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.dataflows.registry import DATAFLOWS
from repro.engine.reducer import StreamingBest
from repro.kernels import ScenarioExpansion, kernel_mode, select_best
from repro.mapping.optimizer import MappingSearchResult, optimize_mapping
from repro.nn.networks import alexnet, resnet18, vgg16
from repro.registry import objective_registry

COSTS = EnergyCosts.table_iv()

#: Seeded sample of the workload space: a few layers per network, CONV
#: and FC, mixed batch sizes.
_RNG = random.Random(20160618)
LAYERS = (_RNG.sample(alexnet(16), 4) + _RNG.sample(vgg16(4), 3)
          + _RNG.sample(resnet18(8), 3))


def _hardware_grid(dataflow):
    """The hardware points one dataflow is checked on.

    The same grid in every process: the paper baseline plus every
    equal-area PE count the dataflow's RF size admits, each distinct
    point once (RS and OSA at 256 PEs equal the baseline).
    """
    points = [HardwareConfig.eyeriss_paper_baseline(256)]
    for pes in (64, 168, 256, 512):
        try:
            point = HardwareConfig.equal_area(pes, dataflow.rf_bytes_per_pe)
        except ValueError:
            continue
        if point not in points:
            points.append(point)
    return points


def _search_both(monkeypatch, dataflow, layer, hw, objective,
                 tie_tolerance=0.01):
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    scalar = optimize_mapping(dataflow, layer, hw, objective=objective,
                              tie_tolerance=tie_tolerance)
    monkeypatch.setenv("REPRO_KERNEL", "vector")
    vector = optimize_mapping(dataflow, layer, hw, objective=objective,
                              tie_tolerance=tie_tolerance)
    return scalar, vector


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@contextmanager
def _recorded_enumeration(dataflow, sink):
    """Append every mapping ``dataflow`` enumerates to ``sink``."""
    cls = type(dataflow)
    had_own = "enumerate_mappings" in vars(cls)
    original = cls.enumerate_mappings

    def recording(self, layer, hw):
        for mapping in original(self, layer, hw):
            sink.append(mapping)
            yield mapping

    cls.enumerate_mappings = recording
    try:
        yield
    finally:
        if had_own:
            cls.enumerate_mappings = original
        else:
            del cls.enumerate_mappings


def _scalar_references(monkeypatch, dataflow, layer, hw, objectives,
                       tie_tolerance=0.01):
    """Scalar search results under every objective, one enumeration.

    The first objective runs the scalar entry point itself (a direct
    ``optimize_mapping`` call under ``REPRO_KERNEL=scalar``); the
    candidates its generator yields are recorded on the way and reduced
    again under the other objectives with the same StreamingBest rule,
    so the scalar space is enumerated once per (dataflow, hardware,
    layer) instead of once per objective.
    """
    candidates = []
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    with _recorded_enumeration(dataflow, candidates):
        direct = optimize_mapping(dataflow, layer, hw,
                                  objective=objectives[0],
                                  tie_tolerance=tie_tolerance)
    results = {objectives[0]: direct}
    for objective in objectives:
        score = objective_registry[objective]
        reducer = StreamingBest(tie_tolerance=tie_tolerance,
                                tie_key=lambda mapping: mapping.active_pes)
        for candidate in candidates:
            reducer.update(score(candidate, hw.costs), candidate)
        reduced = MappingSearchResult(
            dataflow=dataflow.name, layer=layer.name,
            best=reducer.result(), candidates=reducer.count,
            objective=objective)
        if objective == objectives[0]:
            assert reduced == direct  # the re-reduction is the search
        results[objective] = reduced
    return results


@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestVectorScalarParity:
    def test_same_winner_score_bits_and_counts(self, name, monkeypatch):
        dataflow = DATAFLOWS[name]
        compared = 0
        objectives = ("energy", "edp", "dram")
        for hw in _hardware_grid(dataflow):
            for layer in LAYERS:
                references = _scalar_references(monkeypatch, dataflow,
                                                layer, hw, objectives)
                monkeypatch.setenv("REPRO_KERNEL", "vector")
                for objective in objectives:
                    scalar = references[objective]
                    vector = optimize_mapping(dataflow, layer, hw,
                                              objective=objective)
                    assert scalar.candidates == vector.candidates, (
                        f"{name}/{layer.name}/{objective}: candidate "
                        f"counts diverge")
                    # The winning mapping must be field-for-field equal
                    # (dataclass equality covers the splits, the PE
                    # count and the params dict).
                    assert scalar.best == vector.best, (
                        f"{name}/{layer.name}/{objective}: winners "
                        f"diverge")
                    if scalar.best is not None:
                        assert _bits(scalar.best.energy_per_mac(COSTS)) \
                            == _bits(vector.best.energy_per_mac(COSTS))
                        assert _bits(scalar.best.edp(COSTS)) \
                            == _bits(vector.best.edp(COSTS))
                        assert _bits(scalar.best.dram_accesses_per_op) \
                            == _bits(vector.best.dram_accesses_per_op)
                    compared += 1
        assert compared >= 9  # the grid never degenerates to nothing

    def test_strict_tie_tolerance_parity(self, name, monkeypatch):
        dataflow = DATAFLOWS[name]
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        for layer in LAYERS[:3]:
            scalar, vector = _search_both(monkeypatch, dataflow, layer,
                                          hw, "energy", tie_tolerance=0.0)
            assert scalar.best == vector.best
            assert scalar.candidates == vector.candidates


class TestInfeasibleParity:
    def test_ws_infeasible_cell_matches_scalar(self, monkeypatch):
        # The missing Fig. 11a bar: WS cannot run CONV1 at batch 64.
        layer = alexnet(64)[0]
        hw = HardwareConfig.equal_area(256, DATAFLOWS["WS"].rf_bytes_per_pe)
        scalar, vector = _search_both(monkeypatch, DATAFLOWS["WS"], layer,
                                      hw, "energy")
        assert scalar.best is None and vector.best is None
        assert scalar.candidates == vector.candidates == 0


class TestDispatchRules:
    def test_custom_objective_streams_through_scalar_path(self, monkeypatch):
        """Custom @register_objective callables cannot be vectorized."""
        calls = []

        def rf_pressure(mapping, costs):
            calls.append(1)
            return mapping.access_counts().rf / mapping.macs

        objective_registry.add("rf-pressure", rf_pressure)
        try:
            monkeypatch.setenv("REPRO_KERNEL", "vector")
            result = optimize_mapping(DATAFLOWS["RS"], LAYERS[0],
                                      HardwareConfig.eyeriss_paper_baseline(),
                                      objective="rf-pressure")
        finally:
            objective_registry.remove("rf-pressure")
        assert result.feasible
        # The scalar path scored every candidate through the callable.
        assert len(calls) == result.candidates > 0

    def test_reregistered_builtin_objective_drops_to_scalar(self,
                                                            monkeypatch):
        """The kernel must not shadow a user-overridden 'energy'."""
        original = objective_registry["energy"]
        calls = []

        def my_energy(mapping, costs):
            calls.append(1)
            return mapping.energy_per_mac(costs)

        objective_registry.add("energy", my_energy, replace=True)
        try:
            monkeypatch.setenv("REPRO_KERNEL", "vector")
            result = optimize_mapping(DATAFLOWS["NLR"], LAYERS[0],
                                      HardwareConfig.eyeriss_paper_baseline(),
                                      objective="energy")
        finally:
            objective_registry.add("energy", original, replace=True)
        assert result.feasible
        assert len(calls) == result.candidates > 0

    def test_scalar_override_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        blocks = []
        dataflow = DATAFLOWS["NLR"]
        original = dataflow.enumerate_candidate_arrays

        def spy(layer, hw):
            blocks.append(1)
            return original(layer, hw)

        monkeypatch.setattr(type(dataflow), "enumerate_candidate_arrays",
                            lambda self, layer, hw: spy(layer, hw))
        result = optimize_mapping(dataflow, LAYERS[0],
                                  HardwareConfig.eyeriss_paper_baseline())
        assert result.feasible
        assert blocks == []  # the array enumerator was never consulted

    def test_unknown_kernel_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "simd")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            kernel_mode()

    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_mode() == "auto"


class TestSelectBest:
    """select_best must replicate StreamingBest's reduction exactly."""

    @pytest.mark.parametrize("tolerance", [0.0, 0.01, 0.25])
    def test_matches_streaming_best_on_random_batches(self, tolerance):
        rng = random.Random(tolerance)
        for _ in range(50):
            count = rng.randint(1, 40)
            scores = [rng.choice([0.5, 1.0, 1.004, 1.01, 2.0])
                      * rng.uniform(0.99, 1.01) for _ in range(count)]
            pes = [rng.randint(1, 8) for _ in range(count)]
            reducer = StreamingBest(tie_tolerance=tolerance,
                                    tie_key=lambda i: pes[i])
            for index, score in enumerate(scores):
                reducer.update(score, index)
            winner = select_best(np.array(scores), np.array(pes), tolerance)
            assert winner == reducer.result()

    def test_empty_batch_returns_none(self):
        assert select_best(np.zeros(0), np.zeros(0, dtype=np.int64),
                           0.01) is None


def _interleave(columns):
    """The pre-fold-form row layout: K per-fold columns merged
    fold-major / scenario-minor (the scalar yield order)."""
    return np.stack(columns, axis=1).reshape(-1)


def _expansion_masks():
    """(label, K per-scenario masks) cases for the ScenarioExpansion
    oracle: seeded random masks at three densities, all-false,
    all-true and single-fold, for K = 3 (OS) and K = 4 (RS)."""
    rng = np.random.default_rng(20160618)
    cases = []
    for k in (3, 4):
        for density in (0.1, 0.5, 0.9):
            cases.append((f"K{k}-random{density}",
                          [rng.random(37) < density for _ in range(k)]))
        cases.append((f"K{k}-all-false", [np.zeros(9, bool)] * k))
        cases.append((f"K{k}-all-true", [np.ones(9, bool)] * k))
        cases.append((f"K{k}-single-fold",
                      [rng.random(1) < 0.5 for _ in range(k)]))
    return cases


class TestScenarioExpansion:
    """The fold-form gathers equal the old repeat/interleave formulas."""

    @pytest.mark.parametrize(
        "masks", [masks for _, masks in _expansion_masks()],
        ids=[label for label, _ in _expansion_masks()])
    def test_gathers_match_repeat_and_interleave(self, masks):
        k, folds = len(masks), masks[0].shape[0]
        keep = _interleave(masks)
        rows = ScenarioExpansion(masks)
        assert len(rows) == int(keep.sum())
        assert bool(rows) == bool(keep.any())

        rng = np.random.default_rng(folds * 10 + k)
        per_fold = rng.random(folds)
        per_fold_int = rng.integers(0, 10**6, folds)
        variants = [rng.random(folds) for _ in range(k)]
        int_variants = [rng.integers(0, 10**6, folds) for _ in range(k)]
        for column in (per_fold, per_fold_int):
            got = rows.repeat(column)
            want = np.repeat(column, k)[keep]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        for columns in (variants, int_variants):
            got = rows.select(columns)
            want = _interleave(columns)[keep]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(
            rows.scenario, np.tile(np.arange(k, dtype=np.int64),
                                   folds)[keep])
        assert np.array_equal(
            rows.fold, np.repeat(np.arange(folds, dtype=np.int64), k)[keep])


def test_no_test_seeds_an_rng_from_hash():
    """String hashes are salted per process (PYTHONHASHSEED), so an RNG
    seeded from ``hash()`` makes a test check different data in every
    process.  Seed from a literal instead."""
    root = Path(__file__).resolve().parents[1]
    pattern = re.compile(r"(?:Random|seed|default_rng)\(\s*hash\(")
    offenders = [
        f"{path.relative_to(root)}:{number}"
        for folder in ("tests", "benchmarks")
        for path in sorted((root / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)]
    assert not offenders, f"RNG seeded from hash(): {offenders}"
