"""Mapping search (Section VI-C-3).

For each dataflow there is a set of parameters describing the optimal
mapping for a given layer shape under the hardware constraints; the paper
obtains it "through an optimization process with objective functions
defined in Eq. (3) and (4)".  This module is that optimizer: it scores
every candidate the dataflow enumerates and keeps the best one under the
chosen objective.

The search runs one of two equivalent engines:

* the **vectorized kernel** (:mod:`repro.kernels`): the dataflow emits
  its whole candidate space as structure-of-arrays NumPy columns and
  the objective is reduced in a handful of array ops, materializing a
  full :class:`~repro.mapping.mapping.Mapping` only for the winner --
  the default for the three built-in objectives;
* the **streaming scalar path**: candidates fold one at a time through
  the engine's single-pass
  :class:`~repro.engine.reducer.StreamingBest` reducer, never
  materializing the full candidate list -- the fallback for custom
  ``@register_objective`` callables (which take arbitrary ``Mapping``
  objects) and for dataflows without an array enumerator.

Both return bit-identical results (same winning mapping, same score,
same candidate count); ``REPRO_KERNEL=scalar`` forces the scalar path
for debugging.  See docs/PERFORMANCE.md.

:func:`optimize_mapping_batch` searches one layer on several hardware
points that share an array geometry and differ only in RF and buffer
capacity -- the shape of a DSE chunk.  Capacity only gates feasibility,
so it enumerates and scores the candidate block once, at the group's
largest capacities, and gives each point its masked argmin: one kernel
call per group instead of one per point, with results bit-identical to
per-point :func:`optimize_mapping`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

import numpy as np

from repro import faults, kernels
from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.engine.reducer import StreamingBest
from repro.mapping.mapping import Mapping
from repro.nn.layer import LayerShape
from repro.registry import objective_registry, register_objective

if TYPE_CHECKING:  # avoid a circular import; Dataflow is only a type here
    from repro.dataflows.base import Dataflow

logger = logging.getLogger("repro.mapping")


@register_objective("energy")
def _energy_objective(mapping: Mapping, costs: EnergyCosts) -> float:
    """The paper's Eq. (3)+(4) objective: energy per MAC."""
    return mapping.energy_per_mac(costs)


@register_objective("edp")
def _edp_objective(mapping: Mapping, costs: EnergyCosts) -> float:
    return mapping.edp(costs)


@register_objective("dram")
def _dram_objective(mapping: Mapping, costs: EnergyCosts) -> float:
    return mapping.dram_accesses_per_op


#: Objective functions selectable by name.  A live read-only view over
#: :data:`repro.registry.objective_registry`; register new objectives
#: with :func:`repro.registry.register_objective`.
OBJECTIVES = objective_registry

#: The built-in scoring callables the vectorized kernel replicates.  The
#: dispatch compares the *registered* objective against this table by
#: identity, so a re-registered name drops back to the scalar path.
_BUILTIN_OBJECTIVES = {
    "energy": _energy_objective,
    "edp": _edp_objective,
    "dram": _dram_objective,
}


@dataclass(frozen=True)
class MappingSearchResult:
    """Outcome of a mapping search for one (dataflow, layer, hardware)."""

    dataflow: str
    layer: str
    best: Optional[Mapping]
    candidates: int
    objective: str

    @property
    def feasible(self) -> bool:
        """False when the dataflow cannot run the layer at all (e.g. WS
        with too many live psums, Fig. 11a)."""
        return self.best is not None


def optimize_mapping(dataflow: "Dataflow", layer: LayerShape,
                     hw: HardwareConfig,
                     costs: EnergyCosts | None = None,
                     objective: str = "energy",
                     tie_tolerance: float = 0.01) -> MappingSearchResult:
    """Exhaustively search the dataflow's mapping space for one layer.

    Parameters
    ----------
    dataflow:
        The dataflow model whose space is searched.
    layer:
        Layer shape to map.
    hw:
        Hardware configuration (PE array and storage capacities).
    costs:
        Energy-cost table; defaults to the hardware's (Table IV).
    objective:
        ``"energy"`` (default, the paper's objective), ``"edp"`` or
        ``"dram"``.
    """
    if objective not in OBJECTIVES:
        known = ", ".join(OBJECTIVES)
        raise ValueError(f"unknown objective {objective!r}; known: {known}")
    score = OBJECTIVES[objective]
    cost_table = costs or hw.costs

    if _vectorizable(dataflow, objective, score):
        # First link of the degradation chain: a kernel failure -- a
        # NumPy regression, a dataflow's buggy array enumerator, an
        # injected ``kernel.vector_error`` -- falls back to the scalar
        # streaming path, which is bit-identical by the parity
        # contract, instead of failing the evaluation.
        try:
            result = _optimize_vectorized(dataflow, layer, hw, cost_table,
                                          objective, tie_tolerance)
        except Exception as exc:
            faults.record("kernel_degradations")
            logger.warning(
                "vectorized kernel failed for %s/%s (%s); degrading to "
                "the scalar path", dataflow.name, layer.name, exc)
        else:
            if result is not None:
                return result

    # Stream candidates through a single-pass reduction: track the best
    # objective value, and among candidates within a whisker of it keep
    # the one with the most active PEs -- mapping choices that cost
    # (almost) nothing in energy should not sacrifice throughput
    # (Section VII-B: RS "efficiently utilizes available PEs").
    reducer: StreamingBest[Mapping] = StreamingBest(
        tie_tolerance=tie_tolerance,
        tie_key=lambda mapping: mapping.active_pes)
    for candidate in dataflow.enumerate_mappings(layer, hw):
        reducer.update(score(candidate, cost_table), candidate)
    return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                               best=reducer.result(),
                               candidates=reducer.count,
                               objective=objective)


def _vectorizable(dataflow: "Dataflow", objective: str, score) -> bool:
    """Whether this search may take the vectorized kernel path.

    Requires all three of: the kernel is not disabled
    (``REPRO_KERNEL=scalar``); the objective is one of the built-in
    three *and still bound to the built-in scorer* (re-registering e.g.
    ``energy`` with a custom callable transparently restores the scalar
    path for it); and -- checked by the caller via the block being
    non-None -- the dataflow implements ``enumerate_candidate_arrays``.
    """
    if kernels.kernel_mode() == "scalar":
        return False
    return (objective in kernels.SCORERS
            and score is _BUILTIN_OBJECTIVES.get(objective))


def _optimize_vectorized(dataflow: "Dataflow", layer: LayerShape,
                         hw: HardwareConfig, cost_table: EnergyCosts,
                         objective: str, tie_tolerance: float
                         ) -> Optional[MappingSearchResult]:
    """Run one search on the array kernel; None defers to the scalar path.

    The dataflow emits its candidate space as one
    :class:`~repro.kernels.CandidateArrays` block (None means it has no
    array enumerator), the kernel scores the whole batch, and only the
    winning row is materialized as a :class:`Mapping` through the
    dataflow's scalar builder -- so the result is field-for-field what
    the streaming reduction would have produced.
    """
    faults.maybe_raise("kernel.vector_error")
    block = dataflow.enumerate_candidate_arrays(layer, hw)
    if block is None:
        return None
    if len(block) == 0:
        return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                                   best=None, candidates=0,
                                   objective=objective)
    scores = kernels.score_candidates(block, layer, cost_table, objective)
    winner = kernels.select_best(scores, block.active_pes, tie_tolerance)
    best = dataflow.rebuild_mapping(layer, hw, block.row_params(winner))
    return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                               best=best, candidates=len(block),
                               objective=objective)


def capacity_free(hw: HardwareConfig) -> tuple:
    """The part of a hardware identity capacity-batched searches share.

    Everything but ``rf_words_per_pe`` and ``buffer_words``: the array
    geometry and the cost table.  Points with equal keys can be searched
    together by :func:`optimize_mapping_batch`.
    """
    return (hw.num_pes, hw.array_h, hw.array_w, hw.costs)


def optimize_mapping_batch(dataflow: "Dataflow", layer: LayerShape,
                           hardware: Sequence[HardwareConfig],
                           objective: str = "energy",
                           tie_tolerance: float = 0.01
                           ) -> Iterator[MappingSearchResult]:
    """Search one layer on hardware points that differ only in capacity.

    Yields one :class:`MappingSearchResult` per point, in order, each
    bit-identical (winner, score, candidate count) to
    ``optimize_mapping(dataflow, layer, hw, objective=objective,
    tie_tolerance=tie_tolerance)``.  Every point must share
    :func:`capacity_free`; each is scored under its own cost table
    (which, by that rule, is the same for all).

    With two or more points on the vectorized path, the candidate block
    is enumerated and scored *once*, on the envelope hardware (the
    largest RF and the largest buffer of the group).  Each point then
    keeps the rows whose reported RF and buffer requirements fit its
    own capacities (:func:`repro.kernels.capacity_mask`) -- the same
    rows, in the same order, its own enumeration would emit -- reduces
    them with the unchanged ``select_best`` rule, and rebuilds its
    winner at its own hardware.  Otherwise (one point,
    ``REPRO_KERNEL=scalar``, a custom objective, a dataflow without an
    array enumerator or without requirement columns) every point runs
    :func:`optimize_mapping`.  A failure inside the batched search is
    the first link of the degradation chain: the points not yet
    answered fall back to per-point :func:`optimize_mapping`, which
    keeps its own vector -> scalar fallback.

    Results are produced lazily: the shared enumerate + score runs when
    the first result is requested, and each point's selection and
    rebuild when its own result is, so a streaming consumer pays for
    one point at a time.  Arguments are validated on the call.
    """
    hardware = list(hardware)
    if objective not in OBJECTIVES:
        known = ", ".join(OBJECTIVES)
        raise ValueError(f"unknown objective {objective!r}; known: {known}")
    if len({capacity_free(hw) for hw in hardware}) > 1:
        raise ValueError(
            "optimize_mapping_batch needs hardware points that differ "
            "only in RF and buffer capacity")
    if len(hardware) > 1 and _vectorizable(dataflow, objective,
                                           OBJECTIVES[objective]):
        return _degrading_batch(dataflow, layer, hardware, objective,
                                tie_tolerance)
    return (optimize_mapping(dataflow, layer, hw, objective=objective,
                             tie_tolerance=tie_tolerance)
            for hw in hardware)


def _degrading_batch(dataflow: "Dataflow", layer: LayerShape,
                     hardware: List[HardwareConfig], objective: str,
                     tie_tolerance: float
                     ) -> Iterator[MappingSearchResult]:
    """The batched search, degrading unanswered points on failure."""
    done = 0
    try:
        for result in _capacity_batch(dataflow, layer, hardware, objective,
                                      tie_tolerance):
            yield result
            done += 1
    except Exception as exc:
        faults.record("kernel_degradations")
        logger.warning(
            "capacity-batched kernel failed for %s/%s (%s); degrading "
            "to per-hardware searches", dataflow.name, layer.name, exc)
    for hw in hardware[done:]:
        yield optimize_mapping(dataflow, layer, hw, objective=objective,
                               tie_tolerance=tie_tolerance)


def _capacity_batch(dataflow: "Dataflow", layer: LayerShape,
                    hardware: List[HardwareConfig], objective: str,
                    tie_tolerance: float
                    ) -> Iterator[MappingSearchResult]:
    """One enumerate + score for the group, then one masked argmin per
    point; yields nothing when the dataflow reports no requirements."""
    faults.maybe_raise("kernel.vector_error")
    envelope = replace(
        hardware[0],
        rf_words_per_pe=max(hw.rf_words_per_pe for hw in hardware),
        buffer_words=max(hw.buffer_words for hw in hardware))
    block = dataflow.enumerate_candidate_arrays(layer, envelope)
    if block is None or block.requirements is None:
        return
    requirements = block.requirements()
    scores = kernels.score_candidates(block, layer, envelope.costs,
                                      objective)
    for hw in hardware:
        rows = np.flatnonzero(kernels.capacity_mask(
            requirements, hw.rf_words_per_pe, hw.buffer_words))
        best = None
        if rows.shape[0]:
            winner = kernels.select_best(scores[rows],
                                         block.active_pes[rows],
                                         tie_tolerance)
            best = dataflow.rebuild_mapping(
                layer, hw, block.row_params(int(rows[winner])))
        yield MappingSearchResult(
            dataflow=dataflow.name, layer=layer.name, best=best,
            candidates=int(rows.shape[0]), objective=objective)
