"""The ``serve-mixed`` workload: a closed loop against ``repro serve --tcp``.

The server records into a store prepared during set-up, which also
holds a fixed slice of cells under the workload name ``transformer``.
The deck never writes that name, so every ``query`` in the deck reads
the same rows however long the run is.  Before timing, one pass over
the deck on a single connection warms the server's cache; the timed
loop is then nearly all cache hits, and its time goes to the wire
codec, admission queue, executor, service dispatch and store writes.

Each of ``CLIENTS`` connections sends a request, waits for its terminal
event, and sends the next.  A request is timed from its first send: a
``busy`` answer counts as a failed attempt and the request is resent
after ``retry_after`` on the same clock.  Latency quantiles are exact,
from these client-side samples.  Times are reported raw: a request's
time here goes to process wake-ups and store I/O as much as to CPU
work, which the host-speed loop (``hostspeed.py``) does not track --
scaling by it made this workload's figures less steady, not more.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from gate import check_parity, digest, network_jobs, strip_volatile
from workloads import DATAFLOWS, Run

#: Closed-loop connections.  One: with two vCPUs, a second client
#: competes with the server for the CPU it needs, and the run then
#: measures that contention more than the server.
CLIENTS = 1
#: Server executor threads.
SERVER_WORKERS = 2
#: Admission window: larger than CLIENTS, so no request should be busy.
WINDOW = 64
_STREAM_EVENTS = ("cell", "candidate", "progress")
_SLICE = dict(workload="transformer", batches=(1,), pe_counts=(64, 256))


def _slice_scenario():
    from repro.api import Scenario
    return Scenario(_SLICE["workload"], batches=_SLICE["batches"],
                    pe_counts=_SLICE["pe_counts"])


def prepare_store(path: Path) -> None:
    """A fresh store holding the fixed query slice (12 cells)."""
    from repro.api import Session

    with Session(parallel=False, store=path, record="perfbench-slice") \
            as session:
        session.evaluate(_slice_scenario())


def make_deck(seed: int) -> list:
    """The seeded request deck: 16 distinct requests over four verbs."""
    rng = random.Random(f"serve-mixed/{seed}")
    layers = []
    for index in range(8):
        layers.append({"name": f"S{index}", "H": rng.choice((8, 10, 12, 14)),
                       "R": 3, "C": rng.choice((4, 8, 16)),
                       "M": rng.choice((4, 8, 16))})

    def grid():
        return {"layers": rng.sample(layers, 2), "batch": 1,
                "dataflows": rng.sample(DATAFLOWS, 2),
                "pe_counts": sorted(rng.sample((16, 32, 64, 128), 2))}

    deck = []
    for _ in range(5):
        deck.append({"verb": "evaluate", **grid()})
        deck.append({"verb": "batch", **grid()})
    for _ in range(3):
        deck.append({"verb": "dse", "layers": rng.sample(layers, 1),
                     "batch": 1, "dataflows": rng.sample(DATAFLOWS, 2),
                     "pe_counts": sorted(rng.sample((16, 32, 64), 2)),
                     "rf_choices": [64, 128], "glb_choices": [8192, 16384],
                     "stream": True})
        deck.append({"verb": "query", "workload": _SLICE["workload"],
                     "dataflow": rng.choice(DATAFLOWS)})
    rng.shuffle(deck)
    return deck


class _Client:
    """One blocking JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.stream = self.sock.makefile("rwb")

    def call(self, payload: dict) -> dict:
        """Send one request; return its terminal event."""
        self.stream.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.stream.flush()
        while True:
            line = self.stream.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            event = json.loads(line)
            if event.get("event") not in _STREAM_EVENTS:
                return event

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


def _evals(spec: dict, terminal: dict) -> int:
    if spec["verb"] in ("batch", "evaluate"):
        return terminal.get("layer_jobs", 0)
    if spec["verb"] == "dse":
        return terminal.get("candidates", 0) * len(spec["layers"])
    return 0


class Load:
    """The outcome of one closed loop."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.samples = []   # (deck index, latency seconds, terminal)
        self.busy = 0
        self.errors = []
        self.window = 0.0
        self.per_client = []


def closed_loop(port: int, deck: list, seconds: float = None,
                counts: list = None) -> Load:
    """Drive ``CLIENTS`` connections for ``seconds``, or for exactly
    ``counts[i]`` requests on client ``i``."""
    load = Load()
    load.per_client = [0] * CLIENTS
    deadline = None

    def client(number: int) -> None:
        conn = _Client(port)
        try:
            turn = 0
            while (turn < counts[number]) if counts is not None else \
                    time.perf_counter() < deadline:
                index = (number * len(deck) // CLIENTS + turn) % len(deck)
                payload = dict(deck[index], id=f"c{number}-{turn}")
                start = time.perf_counter()
                while True:
                    terminal = conn.call(payload)
                    if terminal.get("event") != "busy":
                        break
                    with load.lock:
                        load.busy += 1
                    time.sleep(float(terminal.get("retry_after", 0.05)))
                elapsed = time.perf_counter() - start
                with load.lock:
                    load.samples.append((index, elapsed, terminal))
                turn += 1
            load.per_client[number] = turn
        except (OSError, ValueError) as exc:
            with load.lock:
                load.errors.append(f"client {number}: {exc!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(number,))
               for number in range(CLIENTS)]
    start = time.perf_counter()
    if seconds is not None:
        deadline = start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    load.window = time.perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        load.errors.append("a client did not finish within 120 s")
    return load


def warm_up(port: int, deck: list) -> list:
    """One sequential pass over the deck; returns the terminal events."""
    conn = _Client(port)
    try:
        return [conn.call(dict(spec, id=f"warm-{index}"))
                for index, spec in enumerate(deck)]
    finally:
        conn.close()


def spawn_server(root: Path, store: Path):
    """Start ``repro serve --tcp``; returns (process, port, seconds to
    its ``listening`` line)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--tcp", "127.0.0.1:0", "--serial", "--store", str(store),
         "--record", "perfbench", "--serve-workers", str(SERVER_WORKERS),
         "--window", str(WINDOW)],
        cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    try:
        event = json.loads(line)
        port = int(event["port"])
    except (ValueError, KeyError, TypeError):
        stop_server(proc)
        raise RuntimeError(f"server did not announce a port: {line!r}")
    return proc, port, seconds


def stop_server(proc) -> int:
    """SIGTERM drain; kill if it does not exit within 60 s."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(30)
    proc.stdout.close()
    return proc.returncode


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not reported")


class InProcessServer:
    """``EvalServer`` hosted in this process, so the traced run can wrap
    its handler and dispatcher."""

    def __init__(self, store: Path) -> None:
        import asyncio

        from repro.api import Session
        from repro.netserve.server import EvalServer, ServerConfig
        from repro.service.dispatcher import BatchDispatcher

        self.session = Session(parallel=False, store=store,
                               record="perfbench")
        self.server = EvalServer(
            BatchDispatcher(self.session),
            ServerConfig(port=0, workers=SERVER_WORKERS, window=WINDOW),
            parallel=False)
        ready = threading.Event()
        self.thread = threading.Thread(target=lambda: asyncio.run(
            self.server.run(ready=lambda _event: ready.set())))
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("in-process server did not start")
        self.port = self.server.port

    def stop(self) -> None:
        self.server.request_stop()
        self.thread.join(60)
        self.session.close()


def check_load(load: Load, expected: list, deck: list, run: Run) -> None:
    """Fold a closed loop into ``run``: latencies, evaluations and one
    failure per busy, error, timeout or mismatching answer."""
    for message in load.errors:
        run.fail(message)
    run.busy_attempts += load.busy
    for _ in range(load.busy):
        run.fail("busy")
    stripped = [strip_volatile(terminal) for terminal in expected]
    for index, seconds, terminal in load.samples:
        run.latencies.append(seconds)
        run.evals += _evals(deck[index], terminal)
        if deck[index]["verb"] == "dse":
            run.dse_candidates += terminal.get("candidates", 0)
        if terminal.get("event") in ("error", "timeout"):
            run.fail(f"{deck[index]['verb']}: {terminal.get('event')}: "
                     f"{terminal.get('error', '')}")
        elif strip_volatile(terminal) != stripped[index]:
            run.fail(f"{deck[index]['verb']} answer differs from its "
                     f"warm-up answer")
    run.window += load.window


def _slice_matches(rows: list, slice_rows: dict) -> bool:
    """Whether queried rows are the recorded slice, value for value."""
    if len(rows) != len(_SLICE["pe_counts"]):
        return False
    for row in rows:
        want = slice_rows.get((row.get("dataflow"), row.get("num_pes")))
        if want is None:
            return False
        want = want.to_dict()
        if {key: row.get(key) for key in want} != want:
            return False
    return True


def check_references(seed: int, deck: list, answers: list,
                     run: Run) -> None:
    """Every distinct deck answer against a storeless in-process session,
    plus scalar parity on a seeded subset of the deck's evaluations."""
    from repro.api import Session
    from repro.service.dispatcher import BatchDispatcher, scenario_from_request
    from repro.service.schema import BatchRequest, DseRequest

    jobs = []
    with Session(parallel=False) as session:
        dispatcher = BatchDispatcher(session)
        slice_rows = {(row.dataflow, row.num_pes): row
                      for row in session.evaluate(_slice_scenario())}
        for spec, answer in zip(deck, answers):
            run.checks += 1
            body = {key: value for key, value in spec.items()
                    if key != "verb"}
            if spec["verb"] in ("batch", "evaluate"):
                request = BatchRequest.from_dict(body)
                reference = dispatcher.run(request).to_dict()
                scenario = scenario_from_request(request)
                jobs.extend(network_jobs(scenario.cells(),
                                         session.evaluate(scenario)))
                same = (strip_volatile(reference)["cells"]
                        == strip_volatile(answer).get("cells"))
            elif spec["verb"] == "dse":
                reference = dispatcher.run_dse(
                    DseRequest.from_dict(spec)).to_dict()
                same = (strip_volatile(reference)
                        == {key: value for key, value
                            in strip_volatile(answer).items()
                            if key != "event"})
            else:
                same = _slice_matches(answer.get("rows", []), slice_rows)
            if not same:
                run.fail(f"{spec['verb']} answer differs from a storeless "
                         f"in-process session")
    check_parity("serve-mixed", seed, jobs, run)


def answers_digest(answers: list) -> str:
    return digest([strip_volatile(answer) for answer in answers])
