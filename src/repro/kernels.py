"""Vectorized candidate-scoring kernels for the mapping search.

The mapping search (Section VI-C-3) is the innermost loop of everything
this repo does: every ``Session.evaluate``, sweep, DSE candidate and
service request funnels through ``optimize_mapping``.  The scalar path
materializes one frozen :class:`~repro.mapping.mapping.Mapping` per
candidate and scores it one float at a time -- tens of thousands of
dataclass allocations per (dataflow, layer) cell.  This module is the
batch alternative:

* Each dataflow emits its full candidate space as a
  :class:`CandidateArrays` block -- *structure of arrays*, one float64
  column per reuse-split factor -- in exactly the order (and with
  exactly the feasibility filters) of its scalar ``enumerate_mappings``
  generator.  Blocks are *fold-form*: the int64 tiling-parameter
  columns hold one entry per fold (tiling choice) and each row reaches
  its fold through a row -> fold index, because only the winner's
  parameters are ever read.  :class:`ScenarioExpansion` turns the
  per-fold columns of the dataflows whose folds branch into
  buffer-residency scenarios (RS, the OS family) into rows with one
  integer gather per column.
* :func:`score_candidates` computes the objective of the *whole batch*
  in a handful of NumPy ops, reusing the vectorized Eq. (3)/(4) math of
  :mod:`repro.mapping.reuse`.
* :func:`select_best` reduces the score column to the winning row under
  the same min/tie-break rule as
  :class:`~repro.engine.reducer.StreamingBest`.

Only the argmin winner is ever materialized as a ``Mapping`` (via the
dataflow's ``rebuild_mapping``, which builds only the winning row's
scenario), so everything downstream -- the energy breakdown,
``MappingSearchResult``, caches, figures -- is untouched.

Blocks can also report each row's capacity requirement (RF words per
PE, buffer words; computed on demand by ``requirements``).  Capacity
enters the candidate space only through ``requirement <= capacity``
feasibility tests, so one block enumerated at the largest RF and buffer
of several same-geometry hardware points serves all of them:
:func:`capacity_mask` recovers each point's rows, and
:func:`~repro.mapping.optimizer.optimize_mapping_batch` runs one
enumerate + score per group instead of one per point (the streamed DSE
path, where a sampled chunk arrives as runs of such points).

Bit-identical parity with the scalar path is the hard contract: the
expression trees here replicate the scalar association order term for
term, so the winning mapping *and* its objective score match the scalar
search to the last bit (``tests/test_kernels.py`` pins this across all
six dataflows x AlexNet/VGG16/ResNet-18 x a randomized hardware grid).
The expansions only gather values, never recompute them; the every-row
rebuild oracle of ``tests/parity.py`` checks that every row, not just
the winner, rebuilds to the scalar generator's mapping.

The kernel handles the three built-in objectives (``energy``, ``edp``,
``dram``); custom ``@register_objective`` callables take arbitrary
``Mapping`` objects and therefore stream through the scalar path.  The
``REPRO_KERNEL`` environment variable overrides the dispatch for
debugging (see :func:`kernel_mode`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.arch.energy_costs import EnergyCosts
from repro.mapping.reuse import (
    eq3_access_arrays,
    eq4_access_arrays,
    level_energy_arrays,
)
from repro.nn.layer import LayerShape

#: Recognized ``REPRO_KERNEL`` values.
_KERNEL_MODES = ("auto", "vector", "scalar")


def kernel_mode() -> str:
    """The active kernel policy: ``auto`` (default), ``vector``, ``scalar``.

    Read from the ``REPRO_KERNEL`` environment variable on every call so
    tests and debugging sessions can flip it without re-importing:

    ==========  ========================================================
    ``auto``    vectorized kernel for the built-in objectives, scalar
                streaming search otherwise (the default)
    ``vector``  same dispatch as ``auto`` (the kernel cannot evaluate
                arbitrary Python objectives, so custom objectives still
                stream); spelled out for symmetry and log clarity
    ``scalar``  force the scalar path everywhere (debugging / parity
                baselines)
    ==========  ========================================================
    """
    raw = os.environ.get("REPRO_KERNEL", "auto").strip().lower()
    if raw == "":
        return "auto"
    if raw not in _KERNEL_MODES:
        known = ", ".join(_KERNEL_MODES)
        raise ValueError(f"cannot parse REPRO_KERNEL={raw!r}; known: {known}")
    return raw


@dataclass
class CandidateArrays:
    """One dataflow's candidate space as structure-of-arrays columns.

    All rows are *feasible* candidates, in exactly the order the scalar
    ``enumerate_mappings`` generator would have yielded them (the
    tie-break rule is order-sensitive: among equal tie keys the first
    arrival wins).

    The block is *fold-form*: the scoring columns hold one entry per
    candidate row, but the tiling parameters -- read only for the one
    winning row -- are stored once per *fold* (one tiling choice; for RS
    and the OS family each fold branches into several buffer-residency
    scenarios) and reached through a row -> fold index.

    Attributes
    ----------
    ifmap, filter, psum:
        ``(a, b, c, d)`` reuse-split columns per data type, float64,
        one entry per candidate.  Together with the layer's unique-value
        counts these are everything Eqs. (3)/(4) need.  Slots may share
        one array (e.g. a constant ``ones`` column); treat them as
        read-only.
    active_pes:
        Active-PE column (int64); the optimizer's tie-break key and the
        EDP delay denominator.
    params:
        Per-fold tiling parameters (int64 columns keyed by name, e.g.
        ``e, n_s, ..., c_r``), enough, together with the row's scenario,
        for the owning dataflow's ``rebuild_mapping`` to re-materialize
        any row as a full :class:`~repro.mapping.mapping.Mapping`
        through its scalar builder.
    fold:
        The row -> fold index (int64, one entry per row) into the
        ``params`` columns; None when ``params`` already hold one entry
        per row (the dataflows without residency scenarios).
    scenario:
        The per-row buffer-residency scenario id (int64, an index into
        the dataflow's scenario tuple), or None for dataflows without
        scenarios.
    requirements:
        A callable returning the per-candidate capacity requirement as
        two int64 columns ``(rf_words, buffer_words)``: the
        register-file words per PE and the global-buffer words each row
        needs -- the exact quantities its feasibility predicates
        compare against ``hw.rf_words_per_pe`` and ``hw.buffer_words``.
        A row is feasible on any hardware of the same array geometry
        whose capacities cover both (see :func:`capacity_mask`).
        Computed on demand because only the capacity-batched search
        reads them; None when the dataflow does not report them, and
        that search then handles each hardware point on its own.
    """

    ifmap: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    filter: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    psum: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    active_pes: np.ndarray
    params: Dict[str, np.ndarray] = field(default_factory=dict)
    fold: Optional[np.ndarray] = None
    scenario: Optional[np.ndarray] = None
    requirements: Optional[
        Callable[[], Tuple[np.ndarray, np.ndarray]]] = None

    def __len__(self) -> int:
        return int(self.active_pes.shape[0])

    def _folds(self) -> int:
        """The number of per-fold ``params`` entries."""
        if self.fold is None:
            return len(self)
        for column in self.params.values():
            return int(column.shape[0])
        return 0

    def row_params(self, index: int) -> Dict[str, int]:
        """The tiling parameters of one candidate row, as Python ints.

        Resolves the row's fold through :attr:`fold` and appends its
        ``scenario`` id when the block has one.
        """
        at = index if self.fold is None else int(self.fold[index])
        row = {name: int(col[at]) for name, col in self.params.items()}
        if self.scenario is not None:
            row["scenario"] = int(self.scenario[index])
        return row


def empty_candidates() -> CandidateArrays:
    """A zero-row block: the dataflow cannot run the layer at all."""
    z = np.zeros(0, dtype=np.float64)
    zi = np.zeros(0, dtype=np.int64)
    return CandidateArrays(ifmap=(z, z, z, z), filter=(z, z, z, z),
                           psum=(z, z, z, z), active_pes=zi,
                           requirements=lambda: (zi, zi))


def concat_candidates(blocks) -> CandidateArrays:
    """Row-concatenate :class:`CandidateArrays` blocks, preserving order.

    The grouped-convolution driver enumerates one dense block per
    group-parallelism factor and splices them into a single candidate
    space; rows keep block order, matching the scalar generator's loop
    nesting (the tie-break is order-sensitive).  Zero-row blocks are
    dropped; with no surviving rows the empty block is returned.  All
    non-empty blocks must share the same ``params`` keys and the same
    fold/scenario layout (they come from the same dataflow).  The
    per-fold ``params`` are concatenated as they are, and each block's
    row -> fold index is shifted by the folds of the blocks before it.
    """
    blocks = [block for block in blocks if len(block)]
    if not blocks:
        return empty_candidates()
    if len(blocks) == 1:
        return blocks[0]

    def cat4(tuples):
        return tuple(np.concatenate(cols) for cols in zip(*tuples))

    fold = None
    if blocks[0].fold is not None:
        offsets = np.cumsum([0] + [block._folds() for block in blocks[:-1]])
        fold = np.concatenate([block.fold + offset
                               for block, offset in zip(blocks, offsets)])
    scenario = None
    if blocks[0].scenario is not None:
        scenario = np.concatenate([block.scenario for block in blocks])

    requirements = None
    if all(block.requirements is not None for block in blocks):
        def requirements():
            pairs = [block.requirements() for block in blocks]
            return tuple(np.concatenate(columns) for columns in zip(*pairs))

    return CandidateArrays(
        ifmap=cat4([block.ifmap for block in blocks]),
        filter=cat4([block.filter for block in blocks]),
        psum=cat4([block.psum for block in blocks]),
        active_pes=np.concatenate([block.active_pes for block in blocks]),
        params={name: np.concatenate([block.params[name] for block in blocks])
                for name in blocks[0].params},
        fold=fold,
        scenario=scenario,
        requirements=requirements,
    )


def regroup_candidates(block: CandidateArrays, g_p: int) -> CandidateArrays:
    """Lift a per-group dense block onto the full grouped layer.

    The array twin of :func:`repro.dataflows.base.regroup_mapping`: with
    ``g_p`` channel groups mapped in parallel, every candidate keeps its
    per-value reuse factors (the scoring kernel already charges them
    against the *full* layer's unique-value counts, which are exact
    ``groups`` multiples of the per-group counts) and scales its
    active-PE tie-break/delay column by ``g_p``, recorded in a per-fold
    ``g_p`` parameter column for winner reconstruction.

    The buffer requirement is restated against the *full* buffer: each
    partition gets ``buffer_words // g_p`` words, and for an integer
    requirement ``need <= buffer // g_p`` holds exactly when
    ``need * g_p <= buffer``.  Per-PE register files are not
    partitioned, so the RF requirement carries over unchanged.
    """
    params = dict(block.params)
    params["g_p"] = np.full(block._folds(), g_p, dtype=np.int64)
    requirements = None
    if block.requirements is not None:
        def requirements():
            rf_words, buffer_words = block.requirements()
            return rf_words, buffer_words * g_p
    return CandidateArrays(ifmap=block.ifmap, filter=block.filter,
                           psum=block.psum,
                           active_pes=block.active_pes * g_p,
                           params=params, fold=block.fold,
                           scenario=block.scenario,
                           requirements=requirements)


class ScenarioExpansion:
    """Fold-major / scenario-minor row expansion with feasibility masks.

    The dataflows whose folds branch into K buffer-residency scenarios
    (RS, the OS family) compute per-fold columns once and expand them
    into candidate rows ordered exactly like the scalar yield order:
    fold-major, scenario innermost, infeasible rows dropped.  This
    object owns that ordering contract -- which the bit-identical
    tie-break depends on -- so the enumerators cannot drift apart.

    Built from the K per-scenario feasibility masks (length-F bool
    columns).  The surviving rows are located once, as (fold, scenario)
    pairs in fold-major / scenario-minor order; every expansion is then
    one integer gather:

    * :meth:`repeat` -- ``column[fold]`` for a scenario-invariant column
      (what ``np.repeat(column, K)[keep]`` would compute);
    * :meth:`select` -- the K per-scenario variants laid end to end and
      gathered at ``scenario * F + fold``;
    * :attr:`fold` / :attr:`scenario` -- the row -> fold index and the
      per-row scenario id a fold-form :class:`CandidateArrays` carries.
    """

    def __init__(self, masks) -> None:
        self.scenarios = len(masks)
        self.folds = int(masks[0].shape[0])
        # Flat indices ``fold * K + scenario`` of the surviving rows, in
        # fold-major / scenario-minor order (the scalar yield order).
        flat = np.stack(masks, axis=1).ravel().nonzero()[0]
        self.fold = flat // self.scenarios
        self.scenario = flat - self.fold * self.scenarios
        self._at = self.scenario * self.folds + self.fold

    def __len__(self) -> int:
        """The number of surviving candidate rows (falsy when none)."""
        return int(self.fold.shape[0])

    def select(self, columns) -> np.ndarray:
        """Expand K per-scenario column variants into candidate rows."""
        return np.concatenate(columns)[self._at]

    def repeat(self, column: np.ndarray) -> np.ndarray:
        """Expand one scenario-invariant per-fold column into rows."""
        return column[self.fold]


def _total_energy(block: CandidateArrays, layer: LayerShape,
                  costs: EnergyCosts) -> np.ndarray:
    """Whole-layer total energy column (Eq. (3) + Eq. (4) + ALU).

    Mirrors ``Mapping.total_energy``: per-split Table IV weighted sums,
    added ifmap + filter + psum, plus ``macs * alu`` -- in that order.
    """
    e_if = level_energy_arrays(
        *eq3_access_arrays(layer.ifmap_words, *block.ifmap), costs)
    e_w = level_energy_arrays(
        *eq3_access_arrays(layer.filter_words, *block.filter), costs)
    e_ps = level_energy_arrays(
        *eq4_access_arrays(layer.ofmap_words, *block.psum), costs)
    return e_if + e_w + e_ps + layer.macs * costs.alu


def energy_per_mac(block: CandidateArrays, layer: LayerShape,
                   costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.energy_per_mac`` (the paper's Energy/Op)."""
    return _total_energy(block, layer, costs) / layer.macs


def edp(block: CandidateArrays, layer: LayerShape,
        costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.edp``: energy/MAC times the 1/PE delay."""
    delay = 1.0 / block.active_pes.astype(np.float64)
    return energy_per_mac(block, layer, costs) * delay


def dram_accesses_per_op(block: CandidateArrays, layer: LayerShape,
                         costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.dram_accesses_per_op`` (Fig. 11 y-axis)."""
    if_a, w_a, p_a = block.ifmap[0], block.filter[0], block.psum[0]
    reads = (layer.ifmap_words * if_a + layer.filter_words * w_a
             + layer.ofmap_words * (p_a - 1))
    writes = layer.ofmap_words * p_a
    return (reads + writes) / layer.macs


#: Objective name -> vectorized scorer.  The dispatch in
#: ``optimize_mapping`` only takes this path when the *registered*
#: objective is still the matching built-in function, so re-registering
#: e.g. ``energy`` with a custom callable transparently restores the
#: scalar search for it.
SCORERS = {
    "energy": energy_per_mac,
    "edp": edp,
    "dram": dram_accesses_per_op,
}


def score_candidates(block: CandidateArrays, layer: LayerShape,
                     costs: EnergyCosts, objective: str) -> np.ndarray:
    """Score every candidate row under a built-in objective at once."""
    try:
        scorer = SCORERS[objective]
    except KeyError:
        known = ", ".join(SCORERS)
        raise ValueError(
            f"no vectorized scorer for objective {objective!r}; "
            f"known: {known}") from None
    return scorer(block, layer, costs)


def select_best(scores: np.ndarray, active_pes: np.ndarray,
                tie_tolerance: float) -> Optional[int]:
    """The winning row index under the StreamingBest min/tie-break rule.

    Exactly the reduction of
    :class:`~repro.engine.reducer.StreamingBest`: the minimum score
    defines a ``best * (1 + tie_tolerance)`` whisker; among rows at or
    below it, the *first* row with the most active PEs wins (``argmax``
    returns the first occurrence, matching ``max`` semantics over the
    arrival-ordered contender list).  Returns None on an empty batch.
    """
    if scores.shape[0] == 0:
        return None
    best = scores.min()
    threshold = best * (1.0 + tie_tolerance)
    eligible = np.flatnonzero(scores <= threshold)
    return int(eligible[np.argmax(active_pes[eligible])])


def capacity_mask(requirements: Tuple[np.ndarray, np.ndarray],
                  rf_words_per_pe: int, buffer_words: int) -> np.ndarray:
    """The rows that fit the given RF and buffer capacities.

    Capacity enters every built-in dataflow only through feasibility
    predicates of the form ``requirement <= capacity`` (the array
    geometry alone fixes the loop structure and every reuse factor), so
    the block enumerated at the largest capacities of a group of
    hardware points holds every smaller point's block as the masked
    subset, in the same order.  ``requirements`` is the block's
    ``(rf_words, buffer_words)`` pair (:attr:`CandidateArrays.requirements`).
    """
    rf_need, buffer_need = requirements
    return (rf_need <= rf_words_per_pe) & (buffer_need <= buffer_words)
