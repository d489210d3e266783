"""High-level evaluation API: optimize a mapping and account its energy.

``evaluate_layer`` runs the mapping optimizer for one (dataflow, layer,
hardware) triple and returns the full accounting record; it is the pure,
uncached primitive the evaluation engine dispatches to its workers.
The search itself runs on the vectorized kernel of :mod:`repro.kernels`
for the built-in objectives (with a bit-identical streaming fallback
for custom ones -- see docs/PERFORMANCE.md), so the record built here
is the same whichever path scored the candidates.
``evaluate_network`` aggregates a list of layers (e.g. the five CONV
layers of AlexNet) the way the paper's figures do -- totals divided by
total MACs -- and routes through the shared
:class:`~repro.engine.core.EvaluationEngine`, so repeated evaluations
hit the cache and layers can fan out across a worker pool
(``parallel=True`` or ``REPRO_PARALLEL``).

Both granularities derive delay and EDP from the single delay model in
:mod:`repro.energy.edp`: a layer's EDP is ``energy/op x delay/op`` with
``delay/op = 1 / active PEs``, and a network's EDP uses the MAC-weighted
aggregate of exactly those per-layer delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.dataflows.base import Dataflow
from repro.energy.breakdown import EnergyBreakdown, breakdown_mapping
from repro.energy import edp as edp_model
from repro.mapping.mapping import Mapping
from repro.mapping.optimizer import optimize_mapping, optimize_mapping_batch
from repro.nn.layer import LayerShape

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.engine.core import EvaluationEngine


@dataclass(frozen=True)
class LayerEvaluation:
    """Energy accounting of the optimal mapping of one layer."""

    layer: LayerShape
    mapping: Mapping
    breakdown: EnergyBreakdown
    costs: EnergyCosts

    @property
    def energy(self) -> float:
        """Total normalized energy of the layer (Fig. 10 bars)."""
        return self.breakdown.total

    @property
    def energy_per_op(self) -> float:
        """Normalized energy per MAC of this layer."""
        return self.breakdown.total / self.layer.macs

    @property
    def dram_accesses_per_op(self) -> float:
        """Combined DRAM reads + writes per MAC."""
        return self.mapping.dram_accesses_per_op

    @property
    def delay_per_op(self) -> float:
        """Layer delay under the shared model of :mod:`repro.energy.edp`."""
        return edp_model.delay_per_op(self.mapping)

    @property
    def edp_per_op(self) -> float:
        """Energy-delay product per MAC of this layer."""
        return self.energy_per_op * self.delay_per_op


class _Aggregates(NamedTuple):
    """What every per-op metric of a feasible network is derived from."""

    macs: int
    breakdown: EnergyBreakdown
    mappings: tuple
    delay_per_op: float


@dataclass(frozen=True)
class NetworkEvaluation:
    """Aggregate accounting across a list of layers (one dataflow)."""

    dataflow: str
    layers: tuple
    evaluations: tuple
    costs: EnergyCosts

    @property
    def feasible(self) -> bool:
        """True when every layer found at least one feasible mapping."""
        return all(ev is not None for ev in self.evaluations)

    @property
    def total_macs(self) -> int:
        """Total MACs across the network's layers."""
        return sum(layer.macs for layer in self.layers)

    def _require_feasible(self) -> None:
        if not self.feasible:
            missing = [layer.name for layer, ev
                       in zip(self.layers, self.evaluations) if ev is None]
            raise RuntimeError(
                f"{self.dataflow} has no feasible mapping for: "
                f"{', '.join(missing)} (cannot aggregate)"
            )

    @cached_property
    def _aggregates(self) -> _Aggregates:
        """The inputs the per-op metrics share, derived on first read.

        Cached on the instance (the record is immutable), so reading
        all six metrics of a row checks feasibility and sums the layers
        once.  The error an infeasible record raises is never cached.
        """
        self._require_feasible()
        total = self.evaluations[0].breakdown
        for ev in self.evaluations[1:]:
            total = total + ev.breakdown
        mappings = tuple(ev.mapping for ev in self.evaluations)
        return _Aggregates(
            macs=self.total_macs, breakdown=total, mappings=mappings,
            delay_per_op=edp_model.aggregate_delay_per_op(mappings))

    @property
    def breakdown(self) -> EnergyBreakdown:
        """Summed energy breakdown across layers."""
        return self._aggregates.breakdown

    @property
    def energy_per_op(self) -> float:
        """Normalized energy per MAC, aggregated over all layers."""
        agg = self._aggregates
        return agg.breakdown.total / agg.macs

    @property
    def dram_reads_per_op(self) -> float:
        """DRAM read words per MAC, aggregated over all layers."""
        agg = self._aggregates
        return sum(m.dram_reads for m in agg.mappings) / agg.macs

    @property
    def dram_writes_per_op(self) -> float:
        """DRAM write words per MAC, aggregated over all layers."""
        agg = self._aggregates
        return sum(m.dram_writes for m in agg.mappings) / agg.macs

    @property
    def dram_accesses_per_op(self) -> float:
        """Combined DRAM reads + writes per MAC."""
        return self.dram_reads_per_op + self.dram_writes_per_op

    @property
    def delay_per_op(self) -> float:
        """MAC-weighted delay per op (see :mod:`repro.energy.edp`)."""
        return self._aggregates.delay_per_op

    @property
    def edp_per_op(self) -> float:
        """Network-level energy-delay product per MAC."""
        return self.energy_per_op * self.delay_per_op


def evaluate_layer(dataflow: Dataflow, layer: LayerShape,
                   hw: HardwareConfig,
                   costs: EnergyCosts | None = None,
                   objective: str = "energy") -> Optional[LayerEvaluation]:
    """Optimize one layer and account its energy; None when infeasible.

    The mapping search dispatches to the vectorized kernel or the
    streaming scalar path per the rules in ``optimize_mapping`` -- the
    returned record is bit-identical either way.
    """
    cost_table = costs or hw.costs
    result = optimize_mapping(dataflow, layer, hw, cost_table, objective)
    if result.best is None:
        return None
    return LayerEvaluation(
        layer=layer,
        mapping=result.best,
        breakdown=breakdown_mapping(result.best, cost_table),
        costs=cost_table,
    )


def evaluate_layer_batch(dataflow: Dataflow, layer: LayerShape,
                         hardware: Sequence[HardwareConfig],
                         objective: str = "energy"
                         ) -> Iterator[Optional[LayerEvaluation]]:
    """:func:`evaluate_layer` for hardware points that differ only in
    RF and buffer capacity, searched together.

    Yields one record (or None) per point, in order and lazily, each
    bit-identical to ``evaluate_layer(dataflow, layer, hw, None,
    objective)``; the search is
    :func:`~repro.mapping.optimizer.optimize_mapping_batch`.
    """
    results = optimize_mapping_batch(dataflow, layer, hardware, objective)
    for result, hw in zip(results, hardware):
        yield None if result.best is None else LayerEvaluation(
            layer=layer, mapping=result.best,
            breakdown=breakdown_mapping(result.best, hw.costs),
            costs=hw.costs)


def evaluate_network(dataflow: Dataflow, layers: Sequence[LayerShape],
                     hw: HardwareConfig,
                     costs: EnergyCosts | None = None,
                     objective: str = "energy",
                     parallel: bool | None = None,
                     engine: "EvaluationEngine | None" = None
                     ) -> NetworkEvaluation:
    """Optimize and account every layer of a network for one dataflow.

    Runs on the shared evaluation engine: per-layer results are memoized
    across calls, and ``parallel=True`` (or ``REPRO_PARALLEL``) fans the
    layers out over a worker pool.  ``parallel=False`` forces the serial
    path; results are identical either way.  A private ``engine`` can be
    supplied to isolate the cache (tests, sweeps with their own budget).
    """
    from repro.engine.core import default_engine  # lazy: engine imports us

    eng = engine if engine is not None else default_engine()
    return eng.evaluate_network(dataflow, layers, hw, costs=costs,
                                objective=objective, parallel=parallel)
