"""Correctness checks and run-state control shared by every workload.

Everything here runs outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys


def reset_memo_tables() -> int:
    """Clear every process-wide ``functools`` memo table in ``repro``.

    The mapping search memoizes divisor lists and RS fold tables for
    the life of the process, so a second cold sweep runs faster than
    the first.  Clearing them before every iteration makes each
    iteration start from the state of a fresh process, on any commit
    (a memo table a later change adds is found the same way).  Returns
    the number of tables cleared.
    """
    seen = set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and hasattr(value, "cache_info") \
                    and id(clear) not in seen:
                seen.add(id(clear))
                clear()
    return len(seen)


#: Seeded layer evaluations recomputed on the scalar path per run.
PARITY_SUBSET = 12

_VOLATILE = frozenset({"elapsed_s", "cache", "commit_sha", "run_id",
                       "cell_id", "id"})


def strip_volatile(value):
    """A JSON value without timings, cache deltas and row/run ids.

    What remains is the simulated result, which must be bit-identical
    between two commits that only change host performance.
    """
    if isinstance(value, dict):
        return {key: strip_volatile(item) for key, item in value.items()
                if key not in _VOLATILE}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def digest(items) -> str:
    """sha256 over the canonical JSON of ``items`` (floats in repr)."""
    text = json.dumps(items, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Kernel:
    """Run a block under one ``REPRO_KERNEL`` setting."""

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def __enter__(self):
        self.previous = os.environ.get("REPRO_KERNEL")
        os.environ["REPRO_KERNEL"] = self.mode

    def __exit__(self, *exc):
        if self.previous is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = self.previous


def scalar_parity(jobs, rng: random.Random, subset: int) -> list:
    """Recompute a seeded subset of layer evaluations on the scalar path.

    ``jobs`` are ``(dataflow name, layer, hardware, objective, mapping)``
    tuples taken from a timed run, ``mapping`` being the winner it
    reported (None for an infeasible layer).  For each chosen job the
    vectorized and the scalar search are rerun; winner, score and
    candidate count must be bit-identical, and the winner must equal
    the timed run's.  Returns one message per mismatch.
    """
    from repro.mapping.optimizer import OBJECTIVES, optimize_mapping
    from repro.registry import get_dataflow

    chosen = rng.sample(jobs, min(subset, len(jobs)))
    failures = []
    for name, layer, hardware, objective, timed in chosen:
        dataflow = get_dataflow(name)
        with _Kernel("vector"):
            vector = optimize_mapping(dataflow, layer, hardware,
                                      objective=objective)
        with _Kernel("scalar"):
            scalar = optimize_mapping(dataflow, layer, hardware,
                                      objective=objective)
        score = OBJECTIVES[objective]
        scores = [None if result.best is None
                  else score(result.best, hardware.costs)
                  for result in (vector, scalar)]
        where = f"{name}/{layer.name}/{hardware.num_pes} PEs"
        if vector.best != scalar.best or scores[0] != scores[1]:
            failures.append(f"{where}: vector and scalar winners differ")
        if vector.candidates != scalar.candidates:
            failures.append(
                f"{where}: {vector.candidates} vector candidates vs "
                f"{scalar.candidates} scalar")
        if timed != scalar.best:
            failures.append(f"{where}: timed winner differs from scalar")
    return failures


def anchor_jobs() -> list:
    """Layer evaluations checked on every run, whatever the seed.

    AlexNet CONV1, CONV3 and FC1 at batch 4 on the six dataflows'
    equal-area 168-PE configurations (the chip's PE count): a fixed
    floor under the seeded subset, so every seed checks these.
    """
    from repro.dataflows.registry import DATAFLOWS, equal_area_hardware
    from repro.registry import get_network

    layers = {layer.name: layer for layer in get_network("alexnet")(4)}
    jobs = []
    for name in DATAFLOWS:
        hardware = equal_area_hardware(name, 168, None)
        for layer_name in ("CONV1", "CONV3", "FC1"):
            jobs.append((name, layers[layer_name], hardware, "energy"))
    return jobs


def _vector_jobs(jobs) -> list:
    """Parity jobs for (dataflow, layer, hardware, objective) tuples,
    with the vectorized winner standing in for a timed one."""
    from repro.mapping.optimizer import optimize_mapping
    from repro.registry import get_dataflow

    out = []
    for name, layer, hardware, objective in jobs:
        with _Kernel("vector"):
            best = optimize_mapping(get_dataflow(name), layer, hardware,
                                    objective=objective).best
        out.append((name, layer, hardware, objective, best))
    return out


def check_parity(label: str, seed: int, jobs, run) -> None:
    """Scalar parity on ``PARITY_SUBSET`` seeded jobs plus the anchors.

    Every job checked counts as one attempted operation on ``run`` and
    every mismatch as one failure.
    """
    rng = random.Random(f"{label}/parity/{seed}")
    anchors = anchor_jobs()
    failures = (scalar_parity(jobs, rng, PARITY_SUBSET)
                + scalar_parity(_vector_jobs(anchors), rng, len(anchors)))
    run.checks += min(PARITY_SUBSET, len(jobs)) + len(anchors)
    for message in failures:
        run.fail(message)


def network_jobs(scenario_cells, results) -> list:
    """Parity jobs from grid cells and their evaluated ``Result`` rows."""
    jobs = []
    for cell, row in zip(scenario_cells, results):
        for layer, evaluation in zip(cell.layers,
                                     row.evaluation.evaluations):
            jobs.append((cell.dataflow, layer, cell.hardware,
                         cell.objective,
                         None if evaluation is None else evaluation.mapping))
    return jobs
