"""The in-process workloads: ``sweep-cold``, ``dse-stream``, ``store-warm``.

A workload runs in *iterations*.  Iteration ``i`` of seed ``s`` draws
its inputs from ``random.Random(f"<name>/<s>/<i>")`` alone, so any
iteration can be replayed (the traced run replays the untraced run's
iterations).  Each iteration starts from the same state: process-wide
memo tables cleared and fresh sessions (and, for ``store-warm``, a
fresh store).  That preparation is not timed; only the requests are.

A *request* is one call a caller of the library makes and waits for:
one ``Session.evaluate`` of one grid cell, or one streamed DSE
candidate.  ``Run.request`` records its latency and the layer
evaluations it answered.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import hostspeed
from gate import (
    PARITY_SUBSET,
    check_parity,
    digest,
    network_jobs,
    reset_memo_tables,
)

#: The six dataflows of the paper, in registry order.
DATAFLOWS = ("RS", "WS", "OSA", "OSB", "OSC", "NLR")

#: PE counts the seeded grids draw from (every one has an equal-area
#: configuration for all six dataflows).
PE_POOL = tuple(range(64, 1025, 8))

class Run:
    """What one measured run accumulates."""

    def __init__(self) -> None:
        self.latencies = []
        self.evals = 0
        self.window = 0.0
        self.iterations = 0
        self.dse_candidates = 0
        self.evictions = 0
        self.busy_attempts = 0
        self.failures = []
        self.checks = 0
        #: Host-speed calibration samples (``hostspeed.sample``).
        self.calibrations = []
        #: Set by the traced run, so phases can split span self times.
        self.tracer = None
        #: phase -> [window seconds, layer evaluations, {span: self s}]
        self.phases = {}

    def request(self, seconds: float, evals: int) -> None:
        """One completed request of ``seconds`` answering ``evals``."""
        self.latencies.append(seconds)
        self.window += seconds
        self.evals += evals

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


class InProcess:
    """Shared driver: iterate until the window is full, then check."""

    name = ""
    #: Python run in a fresh interpreter to time set-up; ``{path}`` is a
    #: scratch file path inside the work directory.
    setup_code = ""

    def __init__(self, work: Path) -> None:
        self.work = work

    def run_iterations(self, seed: int, run: Run, seconds: float = None,
                       count: int = None):
        """Run iterations until ``seconds`` of window or ``count`` done;
        returns what iteration 0 kept for the checks."""
        kept = None
        index = 0
        while (index < count) if count is not None else \
                (index == 0 or run.window < seconds):
            run.calibrations.append(hostspeed.sample())
            out = self.iteration(seed, index, run)
            if index == 0:
                kept = out
            index += 1
        run.calibrations.append(hostspeed.sample())
        run.iterations = index
        return kept

    def iteration(self, seed: int, index: int, run: Run):
        raise NotImplementedError

    def check(self, seed: int, kept, run: Run) -> str:
        """Run the correctness checks on iteration 0; returns its digest."""
        raise NotImplementedError


def _stratified_pes(rng: random.Random, count: int) -> list:
    """One PE count from each of ``count`` equal slices of the pool.

    Search cost grows with the PE count, so drawing one count per slice
    keeps every iteration's work about the same whatever the seed.
    """
    size = len(PE_POOL) // count
    return [rng.choice(PE_POOL[i * size:(i + 1) * size])
            for i in range(count)]


def _cells(networks, batches, pes) -> list:
    """The (network, dataflow, batch, PE count) grid, one cell each."""
    return [(network, dataflow, batch, num_pes)
            for network in networks for batch in batches
            for num_pes in pes for dataflow in DATAFLOWS]


def _evaluate_cells(session, deck, run: Run, phase: str = None):
    """Evaluate each deck cell as one timed request; returns
    ``[(scenario, results)]``.  With a ``phase``, window, evaluations
    and (when traced) span self times are also added up under it."""
    from repro.api import Scenario

    window, evals = run.window, run.evals
    before = run.tracer.self_times() if run.tracer is not None else {}
    out = []
    for network, dataflow, batch, num_pes in deck:
        start = time.perf_counter()
        scenario = Scenario(network, dataflows=(dataflow,), batches=(batch,),
                            pe_counts=(num_pes,))
        results = session.evaluate(scenario)
        elapsed = time.perf_counter() - start
        run.request(elapsed, sum(len(row.evaluation.layers)
                                 for row in results))
        out.append((scenario, results))
    if phase is None:
        return out
    totals = run.phases.setdefault(phase, [0.0, 0, {}])
    totals[0] += run.window - window
    totals[1] += run.evals - evals
    if run.tracer is not None:
        for name, seconds in run.tracer.self_times().items():
            totals[2][name] = (totals[2].get(name, 0.0) + seconds
                               - before.get(name, 0.0))
    return out


def _rows(evaluated):
    return [row.to_dict() for _, results in evaluated for row in results]


class SweepCold(InProcess):
    """Figure-suite sweeps on a fresh storeless session.

    Per iteration: AlexNet and VGG-16 x the six dataflows x batches
    1, 4 and 16 x four seeded equal-area PE counts = 144 cells (1,728
    layer evaluations), computed cold.
    """

    name = "sweep-cold"
    setup_code = ("from repro.api import Scenario, Session\n"
                  "Session(parallel=False).close()\n")

    def iteration(self, seed, index, run):
        from repro.api import Session

        deck = _cells(("alexnet", "vgg16"), (1, 4, 16),
                      _stratified_pes(_rng(self.name, seed, index), 4))
        reset_memo_tables()
        with Session(parallel=False) as session:
            evaluated = _evaluate_cells(session, deck, run)
            run.evictions += session.cache_stats.evictions
        return evaluated if index == 0 else None

    def check(self, seed, kept, run):
        jobs = []
        for scenario, results in kept:
            jobs.extend(network_jobs(scenario.cells(), results))
        check_parity(self.name, seed, jobs, run)
        return digest(_rows(kept))


class StoreWarm(InProcess):
    """Record a cold sweep into a fresh store, then rerun it warm.

    Per iteration: a recording session evaluates the transformer
    encoder GEMMs x six dataflows x two seeded batches x three seeded
    PE counts (36 cells, 216 layer evaluations) into a new store; then
    ``WARM_PASSES`` fresh sessions over that store rerun the grid, every
    evaluation answered by the store tier.
    """

    name = "store-warm"
    setup_code = ("from repro.api import Session\n"
                  "from repro.store import ExperimentStore\n"
                  "store = ExperimentStore({path!r})\n"
                  "Session(parallel=False, store=store,"
                  " record='perfbench').close()\n"
                  "store.close()\n")

    #: Warm passes per recorded pass: about as much time reading as
    #: writing, so both sides of the store show in the run.
    WARM_PASSES = 6

    def iteration(self, seed, index, run):
        from repro.api import Session
        from repro.store import ExperimentStore

        rng = _rng(self.name, seed, index)
        batches = sorted(rng.sample((1, 2, 4, 8, 16), 2))
        deck = _cells(("transformer",), batches, _stratified_pes(rng, 3))
        reset_memo_tables()
        path = self.work / f"store-{index}.db"
        store = ExperimentStore(path)
        try:
            with Session(parallel=False, store=store,
                         record="perfbench") as session:
                recorded = _evaluate_cells(session, deck, run, "record")
                run.evictions += session.cache_stats.evictions
            expected = _rows(recorded)
            evals = sum(len(row.evaluation.layers)
                        for _, results in recorded for row in results)
            for _ in range(self.WARM_PASSES):
                with Session(parallel=False, store=store) as session:
                    warm = _evaluate_cells(session, deck, run, "warm")
                    stats = session.cache_stats
                run.evictions += stats.evictions
                if stats.misses or stats.store_hits != evals:
                    run.fail(f"warm pass: {stats.store_hits} store hits, "
                             f"{stats.misses} misses for {evals} "
                             f"evaluations")
                run.checks += 1
                if _rows(warm) != expected:
                    run.fail("warm pass differs from the recorded pass")
        finally:
            store.close()
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").unlink(missing_ok=True)
        return recorded if index == 0 else None

    def check(self, seed, kept, run):
        from repro.api import Session

        with Session(parallel=False) as reference:
            storeless = [row.to_dict() for scenario, _ in kept
                         for row in reference.evaluate(scenario)]
        run.checks += 1
        if storeless != _rows(kept):
            run.fail("recorded sweep differs from a storeless session")
        jobs = []
        for scenario, results in kept:
            jobs.extend(network_jobs(scenario.cells(), results))
        check_parity(self.name, seed, jobs, run)
        return digest(_rows(kept))


def dse_space(seed: int, index: int):
    """The 115,200-candidate free-mode space, seeded 2,000-sample draw.

    40 PE-array geometries x 20 RF sizes x 24 buffer sizes x the six
    dataflows on one small CONV layer.
    """
    from repro.dse import DesignSpace
    from repro.nn.layer import conv_layer

    return DesignSpace(
        workload=(conv_layer("B1", H=16, R=3, E=14, C=8, M=16, N=1),),
        pe_counts=tuple(range(16, 16 + 8 * 40, 8)),
        rf_choices=tuple(range(32, 32 + 16 * 20, 16)),
        glb_choices=tuple(range(4096, 4096 + 2048 * 24, 2048)),
        batch=1, sample=DseStream.SAMPLE,
        seed=_rng("dse-stream", seed, index).randrange(2 ** 31))


class DseStream(InProcess):
    """A streamed, storeless exploration per iteration.

    ``explore_stream`` draws ``SAMPLE`` candidates from the space in
    chunks of ``CHUNK`` into the incremental Pareto frontier.  A request
    is one streamed candidate, timed from the consumer asking for it to
    its arrival, so chunk-boundary work (sampling, job building) shows
    in the tail.
    """

    name = "dse-stream"
    setup_code = ("from repro.api import Session\n"
                  "import repro.dse\n"
                  "Session(parallel=False).close()\n")
    SAMPLE = 2000
    #: Each chunk boundary stalls one request for the sampling and job
    #: building of the whole chunk; at 512 those stalls are 0.2% of the
    #: requests, clear of the p99 (at 256 they sat right at it).
    CHUNK = 512

    def iteration(self, seed, index, run):
        from repro.api import Session
        from repro.dse import explore_stream

        space = dse_space(seed, index)
        keep = (frozenset(_rng(self.name, seed, -1).sample(
            range(self.SAMPLE), PARITY_SUBSET)) if index == 0 else ())
        kept, result, position = [], None, 0
        reset_memo_tables()
        with Session(parallel=False) as session:
            events = explore_stream(space, session=session,
                                    chunk=self.CHUNK, keep_candidates=False)
            start = time.perf_counter()
            for kind, payload in events:
                elapsed = time.perf_counter() - start
                if kind == "candidate":
                    run.request(elapsed, 1)
                    if position in keep:
                        kept.append(payload)
                    position += 1
                else:
                    run.window += elapsed
                    if kind == "result":
                        result = payload
                start = time.perf_counter()
            run.evictions += session.cache_stats.evictions
        run.dse_candidates += position
        run.checks += 1
        if position != self.SAMPLE or result is None \
                or result.num_evaluated != self.SAMPLE:
            run.fail(f"exploration streamed {position} of {self.SAMPLE} "
                     f"candidates")
        return (space, kept, result) if index == 0 else None

    def check(self, seed, kept, run):
        from repro.dse import DesignPoint

        space, rows, result = kept
        layer = space.layers()[0]
        jobs = []
        for row in rows:
            point = DesignPoint(array_h=row.array_h, array_w=row.array_w,
                                rf_bytes_per_pe=row.rf_bytes_per_pe,
                                buffer_bytes=row.buffer_bytes)
            evaluation = row.evaluation.evaluations[0]
            jobs.append((row.dataflow, layer, point.hardware, row.objective,
                         None if evaluation is None else evaluation.mapping))
        check_parity(self.name, seed, jobs, run)
        return digest({"evaluated": result.num_evaluated,
                       "frontier": [row.to_dict() for row in result.frontier],
                       "kept": [row.to_dict() for row in rows]})


WORKLOADS = {cls.name: cls for cls in (SweepCold, DseStream, StoreWarm)}
