"""The three workloads and the end-to-end metrics each one reports.

cold-generate and hotspot-library run in fresh worker processes
(``worker.py``).  serve-mixed launches ``python -m repro serve`` in its own
process and drives it from this one with a closed loop of two
``ServeClient`` coroutines.  A traced run executes the same instance twice,
untraced and then traced, so the difference in wall time is the tracing
overhead and the per-layer numbers come from the traced instance.

Every workload reports every end-to-end metric of ``BENCHMARK.json`` and
the :data:`UNGATED` metrics it measures; ``perfbench/README.md`` gives
every definition per workload.
"""

from __future__ import annotations

import asyncio
import json
import queue
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import plans
from meta import median, p95
from tracing import SpanSet, Tracer

#: Extra set-up-only processes (or servers) a workload starts after its main
#: instance; its ``setup_s`` is the median over them and the main instance.
#: Only untraced runs start them, since a traced run reports no ``setup_s``.
COLD_SETUP_PROBES = 2
WARM_SETUP_PROBES = 1
#: hotspot-library samples per second of ``--seconds`` (640 at 10 s): the
#: stored pattern count varies with the seed by the share of samples the
#: prefilter keeps, and more samples narrow that spread.
HOTSPOT_SAMPLES_PER_SECOND = 64
#: Samples per serve-mixed request window.
SERVE_WINDOW = 1
#: Requests of each kind (live, cached) per second of ``--seconds``; never
#: fewer than :data:`SERVE_MIN_PER_KIND`, so each p95 has >= 10 samples
#: beyond it.
SERVE_REQUESTS_PER_SECOND = 20
SERVE_MIN_PER_KIND = 200
#: Closed-loop clients driving the server.
SERVE_CLIENTS = 2

#: Metrics reported but not gated: name -> (unit, better).  On a shared
#: host these times and rates swing with the host's speed by more than any
#: bound BENCHMARK.json may set; the last ones are defined for one workload
#: only.  They are printed, saved and compared by ``--compare``.
UNGATED = {
    "wall_s": ("s", "lower"),
    "patterns_per_s": ("1/s", "higher"),
    "read_patterns_per_s": ("1/s", "higher"),
    "requests_per_s": ("1/s", "higher"),
    "live_p50_s": ("s", "lower"),
    "live_p95_s": ("s", "lower"),
    "cached_p50_s": ("s", "lower"),
    "cached_p95_s": ("s", "lower"),
}

WORKER_TIMEOUT = 170.0
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0


class BenchError(RuntimeError):
    """A workload could not run to completion (reported, no result printed)."""


@dataclass
class Run:
    root: Path
    work: Path
    seed: int
    seconds: int
    trace: bool
    env: dict


@dataclass
class Outcome:
    metrics: dict
    checks: dict
    attempted: int
    failed: int
    #: Sample counts behind the metrics (e.g. requests of each kind).
    samples: dict
    #: The :data:`UNGATED` metrics this workload reports.
    ungated: dict = field(default_factory=dict)
    layers: "dict | None" = None
    missing: list = field(default_factory=list)
    not_exercised: list = field(default_factory=list)
    dominance: list = field(default_factory=list)


# --------------------------------------------------------------------------- #
# batch workloads
# --------------------------------------------------------------------------- #
def _tail(path: Path, lines: int = 25) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def run_worker(run: Run, name: str, mode: str, *args: str) -> dict:
    """Run ``worker.py MODE ARGS`` in a fresh process; return its JSON result."""
    result = run.work / f"{name}.json"
    log = run.work / f"{name}.log"
    t0 = time.perf_counter()
    command = [
        sys.executable, str(run.root / "perfbench" / "worker.py"), mode,
        "--t0", repr(t0), "--result", str(result), *args,
    ]
    with open(log, "w") as out:
        proc = subprocess.Popen(
            command, cwd=run.root, env=run.env, stdout=out, stderr=subprocess.STDOUT
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{name} took longer than {WORKER_TIMEOUT:.0f} s") from None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        raise BenchError(f"{name} exited with {code}:\n{_tail(log)}")
    return json.loads(result.read_text())


def batch_wall_s(result: dict) -> float:
    """``wall_s`` of a batch instance: data -> train -> generate -> library."""
    return result["train_s"] + result["generate_s"]


def _batch_outcome(main: dict, setup_s: float) -> Outcome:
    """Gated and ungated metrics of a batch run."""
    outcome = Outcome(
        metrics={
            "setup_s": setup_s,
            "patterns": main["patterns"],
            "legality": main["legality"],
            "diversity_h": main["diversity_h"],
            "peak_rss_mb": main["peak_rss_mb"],
        },
        checks=dict(main["checks"]),
        attempted=main["attempted"],
        failed=main["unsolved"],
        samples={"kept topologies": main["attempted"]},
        ungated={
            "wall_s": batch_wall_s(main),
            "patterns_per_s": main["patterns"] / main["generate_s"],
        },
    )
    if "read_s" in main:
        outcome.ungated["read_patterns_per_s"] = main["loaded"] / main["read_s"]
        outcome.samples["read passes"] = main["passes"]
        outcome.samples["patterns read"] = main["loaded"]
    return outcome


def _batch_layers(workload: str, outcome: Outcome, main: dict, traced: dict, spans_path: Path):
    spans = SpanSet(json.loads(spans_path.read_text()))
    windows = [
        (span["start"], span["end"])
        for phase in layers.PHASES[workload]
        for span in spans.named(phase)
    ]
    extras = {
        "overhead_s": batch_wall_s(traced) - batch_wall_s(main),
        "library_bytes": traced["library_bytes"],
        "stored": traced["patterns"],
    }
    outcome.layers, outcome.missing, outcome.not_exercised = layers.layer_metrics(
        workload, spans, windows, extras
    )
    outcome.dominance = layers.dominance(workload, spans)
    for name, ok in traced["checks"].items():
        outcome.checks[f"traced: {name}"] = ok


def cold_generate(run: Run) -> Outcome:
    seed = str(plans.workload_seed(run.seed, "cold-generate"))
    main = run_worker(run, "cold", "cold", "--seed", seed, "--out", str(run.work / "cold-library"))
    setups = [main["start_s"]] + [
        run_worker(run, f"cold-setup-{i}", "cold-setup", "--seed", seed)["start_s"]
        for i in range(0 if run.trace else COLD_SETUP_PROBES)
    ]
    outcome = _batch_outcome(main, median(setups))
    outcome.samples["setup processes"] = len(setups)
    if run.trace:
        spans = run.work / "cold-spans.json"
        traced = run_worker(
            run, "cold-traced", "cold", "--seed", seed,
            "--out", str(run.work / "cold-library-traced"), "--spans", str(spans),
        )
        _batch_layers("cold-generate", outcome, main, traced, spans)
    return outcome


def hotspot_library(run: Run) -> Outcome:
    seed = str(plans.workload_seed(run.seed, "hotspot-library"))
    samples = str(HOTSPOT_SAMPLES_PER_SECOND * run.seconds)
    common = ("--seed", seed, "--samples", samples)
    main = run_worker(run, "hotspot", "hotspot", *common, "--out", str(run.work / "hotspot-library"))
    setups = [main["train_s"]] + [
        run_worker(run, f"hotspot-setup-{i}", "hotspot-setup", *common)["train_s"]
        for i in range(0 if run.trace else WARM_SETUP_PROBES)
    ]
    outcome = _batch_outcome(main, median(setups))
    outcome.samples["set-ups"] = len(setups)
    if run.trace:
        spans = run.work / "hotspot-spans.json"
        traced = run_worker(
            run, "hotspot-traced", "hotspot", *common,
            "--out", str(run.work / "hotspot-library-traced"), "--spans", str(spans),
        )
        _batch_layers("hotspot-library", outcome, main, traced, spans)
    return outcome


# --------------------------------------------------------------------------- #
# serve-mixed
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro serve --port 0`` in its own process, stopped by SIGTERM.

    With ``spans`` set the server runs through ``worker.py serve``, which
    installs the tracer before calling the CLI's ``serve``.
    """

    def __init__(self, run: Run, scenario_file: Path, spans: "Path | None") -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(run.root / "perfbench" / "worker.py"), "serve",
                       "--spans", str(spans), "--"]
        command += ["--port", "0", "--scenario-file", str(scenario_file)]
        self.log: list[str] = []
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=run.root, env=run.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def port(self) -> int:
        """The bound port, parsed from the server's ``listening on`` line."""
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise BenchError("server did not report a port in time") from None
            if line is None:
                raise BenchError("server exited before listening:\n" + "".join(self.log[-25:]))
            match = re.search(r"listening on http://[^\s]+:(\d+)", line)
            if match:
                return int(match.group(1))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _same_delivery(a, b) -> bool:
    """Bit-identical windows: topology, deltas, origin, sources, clean flags."""
    if a.sources != b.sources or a.clean != b.clean or len(a.patterns) != len(b.patterns):
        return False
    for pa, pb in zip(a.patterns, b.patterns):
        xa, xb = pa.as_arrays(), pb.as_arrays()
        if xa.keys() != xb.keys():
            return False
        for key in xa:
            if (xa[key].dtype, xa[key].shape, xa[key].tobytes()) != (
                xb[key].dtype, xb[key].shape, xb[key].tobytes()
            ):
                return False
    return True


async def _first_window(client):
    """The first window a fresh server serves: the end of its set-up."""
    from repro.serve import GenerateRequest

    first = await client.generate(GenerateRequest(plans.SERVE_SCENARIO))
    if first.summary is None or not first.summary.ok:
        raise BenchError(f"first window failed: {first.summary}")
    return first


async def _drive(port: int, per_kind: int, rng: random.Random) -> dict:
    """First window (set-up), then the closed loop of live and cached reads."""
    from repro.serve import GenerateRequest, ProtocolError, ServeClient, ServeHTTPError

    client = ServeClient(port=port)
    first = await _first_window(client)
    first_done = time.perf_counter()
    live = {first.summary.start: first}
    starts = [first.summary.start]
    kinds = ["live"] * per_kind + ["cached"] * per_kind
    rng.shuffle(kinds)
    records: list[dict] = []

    async def closed_loop_client() -> None:
        while kinds:
            kind = kinds.pop()
            start = None if kind == "live" else starts[rng.randrange(len(starts))]
            tic = time.perf_counter()
            try:
                window = await client.generate(GenerateRequest(plans.SERVE_SCENARIO, start=start))
            except (ServeHTTPError, ProtocolError, OSError, asyncio.IncompleteReadError, ValueError):
                window = None
            latency = time.perf_counter() - tic
            ok = window is not None and window.summary is not None and window.summary.ok
            record = {"kind": kind, "latency": latency, "ok": ok, "window": window}
            if ok and kind == "live":
                live[window.summary.start] = window
                starts.append(window.summary.start)
            elif ok:
                summary = window.summary
                record["identical"] = (
                    summary.cached_samples == summary.end - summary.start
                    and _same_delivery(window, live[start])
                )
            records.append(record)

    loop_start = time.perf_counter()
    await asyncio.gather(*(closed_loop_client() for _ in range(SERVE_CLIENTS)))
    loop_end = time.perf_counter()
    snapshot = await client.metrics()
    return {
        "first_done": first_done,
        "loop_window": (loop_start, loop_end),
        "records": records,
        "server_metrics": snapshot,
    }


def serve_instance(run: Run, scenario_file: Path, mix_seed: int, per_kind: int, traced: bool) -> dict:
    """Launch a server, drive it, stop it; the request mix is seeded by ``mix_seed``."""
    server_spans = run.work / "server-spans.json" if traced else None
    client_tracer = Tracer()
    with ServerProcess(run, scenario_file, server_spans) as server:
        port = server.port()
        if traced:
            client_tracer.install(["serve.decode"])
        try:
            data = asyncio.run(_drive(port, per_kind, random.Random(mix_seed)))
        finally:
            client_tracer.uninstall()
    data["launched"] = server.launched
    data["exit_code"] = server.proc.returncode
    # Servers are this process's only children and the untraced instance runs
    # first, so for it the children's peak is its own server's.
    data["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if traced:
        data["spans"] = json.loads(server_spans.read_text())
        data["client_spans"] = client_tracer.export()
    return data


def serve_setup_s(run: Run, scenario_file: Path) -> float:
    """Set-up of one more fresh server: launch until its first window is served."""
    from repro.serve import ServeClient

    with ServerProcess(run, scenario_file, None) as server:
        asyncio.run(_first_window(ServeClient(port=server.port())))
        return time.perf_counter() - server.launched


def serve_wall_s(data: dict) -> float:
    """``wall_s`` of a serve instance: server launch -> last response of the loop."""
    return data["loop_window"][1] - data["launched"]


def _merged_spans(server: dict, client: dict) -> SpanSet:
    offset = len(server["spans"])
    spans = list(server["spans"])
    for span in client["spans"]:
        span = dict(span)
        if span["parent"] is not None:
            span["parent"] += offset
        spans.append(span)
    return SpanSet({"spans": spans, "absent": {**server["absent"], **client["absent"]}})


def serve_mixed(run: Run) -> Outcome:
    from repro.metrics import pattern_diversity

    seed = plans.workload_seed(run.seed, "serve-mixed")
    scenario_file = run.work / "serve-scenarios.json"
    scenario_file.write_text(json.dumps(plans.serve_scenarios(SERVE_WINDOW)))
    per_kind = max(SERVE_MIN_PER_KIND, SERVE_REQUESTS_PER_SECOND * run.seconds)
    main = serve_instance(run, scenario_file, seed, per_kind, traced=False)

    records = main["records"]
    loop_s = main["loop_window"][1] - main["loop_window"][0]
    ok_live = [r for r in records if r["kind"] == "live" and r["ok"]]
    ok_cached = [r for r in records if r["kind"] == "cached" and r["ok"]]
    delivered = [p for r in ok_live for p in r["window"].patterns]
    clean = sum(bool(c) for r in ok_live for c in r["window"].clean)
    failed = sum(1 for r in records if not r["ok"])
    live_latency = [r["latency"] for r in ok_live]
    cached_latency = [r["latency"] for r in ok_cached]
    if len(live_latency) < 2 or len(cached_latency) < 2:
        raise BenchError(f"{failed} of {len(records)} requests failed; nothing to measure")
    setups = [main["first_done"] - main["launched"]] + [
        serve_setup_s(run, scenario_file) for _ in range(0 if run.trace else WARM_SETUP_PROBES)
    ]
    metrics = {
        "setup_s": median(setups),
        "patterns": len(delivered),
        "legality": clean / len(delivered) if delivered else 0.0,
        "diversity_h": pattern_diversity(delivered) if delivered else 0.0,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    ungated = {
        "wall_s": serve_wall_s(main),
        "patterns_per_s": len(delivered) / loop_s,
        "requests_per_s": (len(ok_live) + len(ok_cached)) / loop_s,
        "live_p50_s": median(live_latency),
        "live_p95_s": p95(live_latency),
        "cached_p50_s": median(cached_latency),
        "cached_p95_s": p95(cached_latency),
    }
    checks = {
        "patterns > 0": len(delivered) > 0,
        "legality = 1": bool(delivered) and clean == len(delivered),
        "every request ok (error_rate = 0)": failed == 0,
        "every cached re-read bit-identical to its live window": all(
            r["identical"] for r in ok_cached
        ),
        f">= {SERVE_MIN_PER_KIND} requests of each kind": min(
            sum(1 for r in records if r["kind"] == kind) for kind in ("live", "cached")
        ) >= SERVE_MIN_PER_KIND,
        "server stopped cleanly on SIGTERM": main["exit_code"] == 0,
    }
    outcome = Outcome(
        metrics=metrics,
        checks=checks,
        attempted=len(records),
        failed=failed,
        samples={
            "live requests": len(live_latency),
            "cached requests": len(cached_latency),
            "clients": SERVE_CLIENTS,
            "window samples": SERVE_WINDOW,
            "set-ups": len(setups),
        },
        ungated=ungated,
    )
    if run.trace:
        traced = serve_instance(run, scenario_file, seed, per_kind, traced=True)
        spans = _merged_spans(traced["spans"], traced["client_spans"])
        window = traced["loop_window"]
        extras = {
            "overhead_s": serve_wall_s(traced) - serve_wall_s(main),
            "serve_metrics": traced["server_metrics"],
            "loop_window": window,
        }
        outcome.layers, outcome.missing, outcome.not_exercised = layers.layer_metrics(
            "serve-mixed", spans, [window], extras
        )
        outcome.dominance = layers.dominance("serve-mixed", spans)
        outcome.checks["traced: every request ok"] = all(r["ok"] for r in traced["records"])
        outcome.checks["traced: server stopped cleanly"] = traced["exit_code"] == 0
    return outcome


WORKLOADS = {
    "cold-generate": cold_generate,
    "hotspot-library": hotspot_library,
    "serve-mixed": serve_mixed,
}
