"""Property-based vector/scalar parity fuzzing over random modern shapes.

The generator-driven complement of ``test_kernels.py``'s hand-picked
paper layers: for every dataflow and every seed in the matrix,
``tests/parity.py`` draws a batch of random shapes spanning dense,
grouped, depthwise, dilated, grouped+dilated convs, transformer GEMMs
and degenerate edges, and :func:`parity.check_parity` asserts the
vectorized kernel and the streaming scalar search agree bit-for-bit on
winner, score and candidate count -- plus enumeration-count consistency
and dominance.

Coverage math: ``len(SEEDS) * len(DATAFLOWS) * SHAPES_PER_CELL``
generated (shape, dataflow) cells -- 2 * 6 * 18 = 216 >= 200 with the
default matrix, every shape drawn fresh per (dataflow, seed) pair.

``TestBatchedParity`` drives :func:`parity.check_batch_parity`, the
capacity-batched oracle: per (dataflow, seed) cell, every shape class
(dense, grouped, depthwise and dilated conv, GEMM) under every
objective is searched on a group of 2-8 hardware points that share an
array geometry -- each group mixing in a starved-RF and a
starved-buffer member -- with ``tie_tolerance`` alternating between
0.0 and 0.01; the batched search must equal per-hardware
``optimize_mapping`` bit-for-bit on the vector and scalar paths.

``TestEveryRowRebuild`` drives :func:`parity.check_every_row_rebuild`:
per (dataflow, seed) cell, a dense, grouped, depthwise and dilated conv
on two hardware points each, every block row must rebuild to the
scalar generator's mapping at its position and report the capacities
its scalar predicates test.

The CI ``parity-fuzz`` job adds a non-blocking run with
``REPRO_PARITY_SEED=$GITHUB_RUN_ID``: setting that variable appends one
extra seed to the matrix, so every CI run fuzzes a never-seen region
while the fixed seeds keep the blocking runs deterministic.  Failures
name the seed in the assertion message for local replay.
"""

from __future__ import annotations

import os

import pytest

from repro.dataflows.registry import DATAFLOWS

from parity import (
    OBJECTIVES,
    ShapeGenerator,
    check_batch_parity,
    check_buffer_monotonicity,
    check_every_row_rebuild,
    check_parity,
)

#: Fixed, always-run seed matrix (deterministic CI-blocking coverage).
_FIXED_SEEDS = (20160618, 20260807)

#: Shapes drawn per (dataflow, seed) cell.
SHAPES_PER_CELL = 18


def _seed_matrix() -> tuple:
    """The fixed seeds, plus ``REPRO_PARITY_SEED`` when set (fuzz mode)."""
    seeds = list(_FIXED_SEEDS)
    extra = os.environ.get("REPRO_PARITY_SEED")
    if extra:
        seeds.append(int(extra) % 2**63)
    return tuple(seeds)


SEEDS = _seed_matrix()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestGeneratedParity:
    """check_parity over the random shape mix, per dataflow and seed."""

    def test_random_shapes_bit_identical(self, name, seed):
        dataflow = DATAFLOWS[name]
        gen = ShapeGenerator(f"{seed}:{name}")
        checked = 0
        for layer in gen.shapes(SHAPES_PER_CELL):
            hw = gen.hardware()
            check_parity(dataflow, layer, hw, objective=gen.objective(),
                         context=f"seed={seed} ")
            checked += 1
        assert checked == SHAPES_PER_CELL


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestBufferMonotonicity:
    """Best score is monotone non-increasing in global-buffer capacity."""

    def test_bigger_buffer_never_worse(self, name, seed):
        dataflow = DATAFLOWS[name]
        gen = ShapeGenerator(f"mono:{seed}:{name}")
        for _ in range(4):
            layer = gen.any_shape()
            hw = gen.hardware()
            check_buffer_monotonicity(dataflow, layer, hw,
                                      objective=gen.objective(),
                                      context=f"seed={seed} ")


#: The shape classes the batched oracle covers, one draw each per
#: objective.
BATCH_SHAPE_CLASSES = ("dense_conv", "grouped_conv", "depthwise_conv",
                       "dilated_conv", "gemm")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestBatchedParity:
    """Capacity-batched search == per-hardware search, bit for bit."""

    def test_hardware_groups_bit_identical(self, name, seed):
        dataflow = DATAFLOWS[name]
        gen = ShapeGenerator(f"batch:{seed}:{name}")
        groups = infeasible = 0
        for shape_class in BATCH_SHAPE_CLASSES:
            for objective in OBJECTIVES:
                layer = getattr(gen, shape_class)()
                group = gen.hardware_group()
                assert 2 <= len(group) <= 8
                assert len({(hw.num_pes, hw.array_h, hw.array_w)
                            for hw in group}) == 1
                tolerance = (0.0, 0.01)[groups % 2]
                reference = check_batch_parity(
                    dataflow, layer, group, objective=objective,
                    tie_tolerance=tolerance, context=f"seed={seed} ")
                infeasible += sum(not r.feasible for r in reference)
                groups += 1
        assert groups == len(BATCH_SHAPE_CLASSES) * len(OBJECTIVES)
        # Every group carries starved members: some must be infeasible.
        assert infeasible > 0


#: The shape classes the every-row oracle covers.
REBUILD_SHAPE_CLASSES = ("dense_conv", "grouped_conv", "depthwise_conv",
                         "dilated_conv")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestEveryRowRebuild:
    """Every block row rebuilds to the scalar generator's mapping."""

    def test_every_row_rebuilds_field_for_field(self, name, seed):
        dataflow = DATAFLOWS[name]
        gen = ShapeGenerator(f"rebuild:{seed}:{name}")
        rows = 0
        for shape_class in REBUILD_SHAPE_CLASSES:
            layer = getattr(gen, shape_class)()
            for _ in range(2):
                rows += check_every_row_rebuild(dataflow, layer,
                                                gen.hardware(),
                                                context=f"seed={seed} ")
        assert rows > 0


class TestCoverageFloor:
    """The default matrix satisfies the >=200-generated-shapes floor."""

    def test_at_least_200_cells(self):
        cells = len(_FIXED_SEEDS) * len(DATAFLOWS) * SHAPES_PER_CELL
        assert cells >= 200

    def test_mix_covers_every_class(self):
        """One batch contains grouped, depthwise, dilated, GEMM, edges."""
        gen = ShapeGenerator("coverage")
        classes = {layer.name.split("_")[1] for layer in gen.shapes(60)}
        assert {"dense", "grouped", "depthwise", "dilated",
                "gemm", "edge"} <= classes


@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestEdgeCaseEnumeration:
    """Randomized degenerate geometries: counts agree and behave.

    The satellite edge cases called out in the issue: 1x1 convs,
    ``C == groups`` depthwise layers, dilation pushing the effective
    filter to the ifmap edge, and batch-1 GEMMs.  Each must either
    enumerate identically on both paths (non-zero somewhere) or be
    consistently empty -- never diverge.
    """

    def test_pointwise_1x1(self, name):
        gen = ShapeGenerator(f"edge1x1:{name}")
        dataflow = DATAFLOWS[name]
        for _ in range(3):
            layer = gen._conv("pw", r=1, e=gen.rng.randint(1, 12),
                              c=gen.rng.choice((1, 16, 64)),
                              m=gen.rng.choice((1, 16, 64)))
            check_parity(dataflow, layer, gen.hardware())

    def test_depthwise_c_equals_groups(self, name):
        gen = ShapeGenerator(f"edgedw:{name}")
        dataflow = DATAFLOWS[name]
        count = 0
        for _ in range(3):
            layer = gen.depthwise_conv()
            assert layer.groups == layer.C == layer.M
            assert layer.is_depthwise
            count += check_parity(dataflow, layer, gen.hardware())
        # Depthwise layers must be *searchable*, not silently skipped:
        # at least one random hardware point yields candidates.
        assert count > 0

    def test_dilation_to_the_ifmap_edge(self, name):
        """R_eff == H exactly (E = 1): feasible and bit-identical."""
        gen = ShapeGenerator(f"edgedil:{name}")
        dataflow = DATAFLOWS[name]
        for d in (2, 3, 4):
            layer = gen._conv("dilmax", r=3, e=1, c=8, m=8, dilation=d)
            assert layer.R_eff == layer.H
            check_parity(dataflow, layer, gen.hardware())

    def test_batch1_gemm(self, name):
        gen = ShapeGenerator(f"edgefc:{name}")
        dataflow = DATAFLOWS[name]
        count = 0
        for _ in range(3):
            layer = gen.gemm().with_batch(1)
            assert layer.N == 1 and layer.is_fc
            count += check_parity(dataflow, layer, gen.hardware())
        assert count > 0
