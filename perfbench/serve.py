"""The ``serve_mixed`` workload: an open-loop client against a fresh server.

The server runs in its own process (``launcher.py``). The client
pre-generates every request from the seed, then sends them on a fixed
schedule over two connections: 80% single-point ``observe``, 20%
``forecast``, each on a stream drawn uniformly at random, on a ladder of
fixed rates. Streams are pinned to a
connection, so each stream's requests are answered in order. Each
request is timed from when it was due; a step in which more than 1% of
requests went out over :data:`LATE_LIMIT_MS` late is void (the sender
fell behind its schedule). Responses are only
recorded during the ladder and checked afterwards.
"""

from __future__ import annotations

import gc
import json
import math
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

from run import (
    BENCH_DIR, OUT_DIR, PROCESS_START, ROOT, median, percentile, pin_environment, speed_probe,
)
from streams import N_STREAMS, curve_points, make_streams

#: (rate in requests/s, share of the run's seconds) per ladder step.
LADDER = ((400, 0.1), (800, 0.5), (1200, 0.2), (1600, 0.2))
#: The step whose latencies, refit rate and forecast ages are reported.
NOMINAL_STEP = 1
OBSERVE_SHARE = 0.8
CONNECTIONS = 2
#: Latency limit on each op's p99 for a step to count towards max_rate_rps.
LATENCY_LIMIT_MS = 10.0
#: A step whose p99 send lateness exceeds this is void.
LATE_LIMIT_MS = 10.0
#: How long the client waits for answers after the last request.
DRAIN_S = 30.0
READY_TIMEOUT_S = 120.0


class Request(NamedTuple):
    due: float  # seconds after the ladder starts
    step: int
    conn: int
    op: str
    stream: int
    n_expected: int  # the stream's observation count once this request is served
    line: bytes


def draw_ops(seed: int, seconds: float) -> list[tuple[int, float, str, int]]:
    """(step, due, op, stream) of every request of the run, in send order.

    Each request picks its stream uniformly at random, so streams fall
    due for a refit at independent times, not in lockstep waves.
    """
    import numpy as np

    rng = np.random.default_rng((seed, 1))
    ops = []
    start = 0.0
    for step, (rate, share) in enumerate(LADDER):
        n = int(round(rate * share * seconds))
        observe = rng.random(n) < OBSERVE_SHARE
        stream = rng.integers(N_STREAMS, size=n)
        for k in range(n):
            op = "observe" if observe[k] else "forecast"
            ops.append((step, start + k / rate, op, int(stream[k])))
        start += share * seconds
    return ops


def episode_points(seconds: float) -> int:
    """Episode length for a run of *seconds*: one stream's observations
    stay below mean + 6 standard deviations (its count is close to
    Poisson), so no stream runs out of points."""
    mean = sum(rate * share * seconds for rate, share in LADDER) * OBSERVE_SHARE / N_STREAMS
    return curve_points(math.ceil(mean + 6 * math.sqrt(mean)))


def make_schedule(ops: list[tuple[int, float, str, int]], streams: list[Any]) -> list[Request]:
    """The request lines of *ops* against *streams*."""
    counts = [s.warm for s in streams]
    requests: list[Request] = []
    for index, (step, due, op, s) in enumerate(ops):
        stream = streams[s]
        if op == "observe":
            point = counts[s]
            if point >= len(stream.times):
                raise ValueError(f"stream {stream.key} ran out of points")
            counts[s] += 1
            body = {
                "id": index, "op": "observe", "key": stream.key,
                "t": float(stream.times[point]), "p": float(stream.values[point]),
            }
        else:
            body = {"id": index, "op": "forecast", "key": stream.key}
        line = (json.dumps(body) + "\n").encode()
        requests.append(Request(due, step, s % CONNECTIONS, op, s, counts[s], line))
    return requests


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite JSON constant {name}")


def check_response(index: int, request: Request, raw: bytes | None) -> tuple[bool, dict]:
    """Whether *raw* is a strict-JSON, well-formed answer to request
    *index* (answers are matched to requests by their order on the
    connection, so a wrong id means an out-of-order answer)."""
    if raw is None:
        return False, {}
    try:
        body = json.loads(raw, parse_constant=_reject_constant)
    except ValueError:
        return False, {}
    if body.get("id") != index or not body.get("ok") or body.get("op") != request.op:
        return False, body
    result = body["result"]
    if result.get("n") != request.n_expected:
        return False, body
    if request.op == "forecast":
        lower, center, upper = result["lower"], result["center"], result["upper"]
        bands = list(zip(lower, center, upper))
        if len(bands) != len(result["times"]) or not bands:
            return False, body
        for lo, mid, hi in bands:
            if not (math.isfinite(lo) and math.isfinite(mid) and math.isfinite(hi)):
                return False, body
            if not lo <= mid <= hi:
                return False, body
        if not 0 < result["n_fit"] <= result["n"]:
            return False, body
    return True, body


class Launcher:
    """The server process, driven through its stdin."""

    def __init__(self, seed: int, points: int, trace: bool, out: Path) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "launcher.py"),
            "--seed", str(seed), "--points", str(points), "--out", str(out),
        ]
        if trace:
            command.append("--trace")
        self.out = out
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=pin_environment(dict(os.environ)),
        )

    def wait_ready(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.split()[1])

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()

    def finish(self) -> dict[str, Any]:
        """Stop the server, wait for it, and read what it wrote."""
        try:
            self.send("stop")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())


def drive(port: int, requests: list[Request], launcher: Launcher) -> tuple[float, list, list]:
    """Send *requests* on schedule; returns (t0, sent times, answers).

    One thread multiplexes both connections with ``select``: it sleeps
    until the next request is due or an answer arrives, so it never
    holds a CPU the server could use, and stamps each answer on arrival.
    """
    socks = [socket.create_connection(("127.0.0.1", port)) for _ in range(CONNECTIONS)]
    for sock in socks:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
    per_conn = [[i for i, r in enumerate(requests) if r.conn == c] for c in range(CONNECTIONS)]
    answered = [0] * CONNECTIONS
    inbox = [b""] * CONNECTIONS
    outbox = [b""] * CONNECTIONS
    answers: list[tuple[float, bytes] | None] = [None] * len(requests)
    sent = [0.0] * len(requests)
    t0 = time.perf_counter() + 0.05
    deadline = t0 + requests[-1].due + DRAIN_S
    step = -1
    index = 0
    open_conns = set(range(CONNECTIONS))
    try:
        while open_conns and time.perf_counter() < deadline:
            now = time.perf_counter()
            while index < len(requests) and t0 + requests[index].due <= now:
                request = requests[index]
                if request.step != step:
                    step = request.step
                    launcher.send(f"mark step{step}")
                outbox[request.conn] += request.line
                sent[index] = now
                index += 1
            for conn in open_conns:
                if outbox[conn]:
                    try:
                        outbox[conn] = outbox[conn][socks[conn].send(outbox[conn]):]
                    except BlockingIOError:
                        pass
            wait = t0 + requests[index].due - time.perf_counter() if index < len(requests) else DRAIN_S
            readable, _, _ = select.select(
                [socks[c] for c in open_conns],
                [socks[c] for c in open_conns if outbox[c]],
                [],
                max(wait, 0.0),
            )
            received = time.perf_counter()
            for sock in readable:
                conn = socks.index(sock)
                data = sock.recv(1 << 16)
                if not data:
                    open_conns.discard(conn)
                    continue
                *lines, inbox[conn] = (inbox[conn] + data).split(b"\n")
                for line in lines:
                    answers[per_conn[conn][answered[conn]]] = (received, line)
                    answered[conn] += 1
                if answered[conn] == len(per_conn[conn]):
                    open_conns.discard(conn)
    finally:
        launcher.send("mark end")
        for sock in socks:
            sock.close()
    return t0, sent, answers


class StepStats(NamedTuple):
    rate: int
    ok: bool
    void: bool
    failed: int
    attempted: int
    max_late_ms: float
    p99_late_ms: float
    backlog: int
    lat: dict  # op -> list of latencies (ms)
    elapsed: dict  # op -> list of server elapsed_ms
    ages: list


def analyse(t0: float, requests: list[Request], sent: list[float], answers: list, step_ends: list[float]) -> list[StepStats]:
    steps = []
    buckets: dict[int, dict[str, Any]] = {}
    for index, request in enumerate(requests):
        answer = answers[index]
        ok, body = check_response(index, request, None if answer is None else answer[1])
        b = buckets.setdefault(
            request.step,
            {"failed": 0, "n": 0, "late": [], "backlog": 0,
             "lat": {"observe": [], "forecast": []}, "elapsed": {"observe": [], "forecast": []},
             "ages": []},
        )
        b["n"] += 1
        b["late"].append((sent[index] - (t0 + request.due)) * 1e3)
        if not ok:
            b["failed"] += 1
            continue
        received = answer[0]
        if received > t0 + step_ends[request.step]:
            b["backlog"] += 1
        latency = (received - (t0 + request.due)) * 1e3
        b["lat"][request.op].append(latency)
        b["elapsed"][request.op].append(float(body["elapsed_ms"]))
        if request.op == "forecast":
            b["ages"].append(body["result"]["n"] - body["result"]["n_fit"])
    for step, (rate, _share) in enumerate(LADDER):
        b = buckets[step]
        p99_late = percentile(b["late"], 99)
        void = p99_late > LATE_LIMIT_MS
        growing = b["backlog"] > 0.05 * rate
        p99s = [percentile(v, 99) for v in b["lat"].values() if v]
        ok = (not void and b["failed"] == 0 and not growing
              and len(p99s) == 2 and max(p99s) <= LATENCY_LIMIT_MS)
        steps.append(StepStats(rate, ok, void, b["failed"], b["n"], max(b["late"]), p99_late, b["backlog"],
                               b["lat"], b["elapsed"], b["ages"]))
    return steps


def start_server(seed: int, seconds: float, trace: bool, tag: str) -> tuple[list[Request], Launcher]:
    """Generate the run's requests and spawn its server."""
    points = episode_points(seconds)
    streams = make_streams(seed, points)
    requests = make_schedule(draw_ops(seed, seconds), streams)
    out = OUT_DIR / f"serve-{seed}-{tag}.json"
    out.unlink(missing_ok=True)
    return requests, Launcher(seed, points, trace, out)


def setup_only(seed: int, seconds: float) -> float:
    """Seconds from process start until a fresh server is ready."""
    _requests, launcher = start_server(seed, seconds, False, "setup")
    try:
        launcher.wait_ready()
        ready = time.perf_counter()
    finally:
        launcher.finish()
    return ready - PROCESS_START


def run_serve_mixed(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    requests, launcher = start_server(seed, seconds, trace, "trace" if trace else "plain")
    try:
        port = launcher.wait_ready()
        ready = time.perf_counter()
        # Set-up is scaled by the machine speed right after it.
        probe = speed_probe()
        probe_s = time.perf_counter() - ready
        gc.collect()
        gc.disable()
        try:
            t0, sent, answers = drive(port, requests, launcher)
        finally:
            gc.enable()
    finally:
        server = launcher.finish()
    step_ends = []
    total = 0.0
    for _rate, share in LADDER:
        total += share * seconds
        step_ends.append(total)
    setup_s = t0 - PROCESS_START - probe_s
    steps = analyse(t0, requests, sent, answers, step_ends)
    nominal = steps[NOMINAL_STEP]
    marks = {mark["name"]: mark for mark in server["marks"]}
    first, last = marks[f"step{NOMINAL_STEP}"], marks[f"step{NOMINAL_STEP + 1}"]
    window = last["t"] - first["t"]

    def delta(name: str) -> float:
        return last["counters"].get(name, 0) - first["counters"].get(name, 0)

    end_to_end = {
        "setup_s": setup_s,
        "fits_per_s": delta("serve.refits_adopted") / window,
        "peak_rss_mb": server["peak_rss_mb"],
    }
    attempted = sum(s.attempted for s in steps)
    failed = sum(s.failed for s in steps)
    ok_rates = [s.rate for s in steps if s.ok]
    latencies = nominal.lat["observe"] + nominal.lat["forecast"]
    client = {
        "serving.client.p50_ms": median(latencies),
        "serving.client.p99_ms": percentile(latencies, 99),
        "serving.client.observe_p50_ms": median(nominal.lat["observe"]),
        "serving.client.observe_p99_ms": percentile(nominal.lat["observe"], 99),
        "serving.client.forecast_p50_ms": median(nominal.lat["forecast"]),
        "serving.client.forecast_p99_ms": percentile(nominal.lat["forecast"], 99),
        "serving.client.observe_samples": len(nominal.lat["observe"]),
        "serving.client.forecast_samples": len(nominal.lat["forecast"]),
        "serving.client.forecast_age_mean": sum(nominal.ages) / max(len(nominal.ages), 1),
        "serving.client.max_rate_rps": max(ok_rates, default=0),
        "serving.client.failed_share": failed / attempted,
        "serving.client.generator_max_late_ms": max(s.max_late_ms for s in steps),
    }
    server_side: dict[str, float] = {}
    for op in ("observe", "forecast"):
        elapsed = nominal.elapsed[op]
        waits = [lat - el for lat, el in zip(nominal.lat[op], elapsed)]
        server_side[f"serving.server.{op}_elapsed_p50_ms"] = median(elapsed)
        server_side[f"serving.server.{op}_elapsed_p99_ms"] = percentile(elapsed, 99)
        server_side[f"serving.server.{op}_wait_p50_ms"] = median(waits)
        server_side[f"serving.server.{op}_wait_p99_ms"] = percentile(waits, 99)
    for counter in ("refit_ticks", "refits_adopted", "refits_deferred"):
        server_side[f"serving.server.{counter}"] = delta(f"serve.{counter}")
    server_side["serving.server.first_fits"] = server["stats"]["server"].get("serve.first_fits", 0)
    server_side["serving.server.cpu_share"] = (last["cpu_s"] - first["cpu_s"]) / window

    report = [
        f"workload serve_mixed: seed {seed}, {N_STREAMS} streams, {len(requests)} requests, "
        f"{CONNECTIONS} connections, open loop",
    ]
    for s in steps:
        lat = s.lat
        report.append(
            f"  step {s.rate:>5} req/s: {s.attempted} sent, {s.failed} failed, "
            f"observe p50/p99 {_fmt(lat['observe'])}, forecast p50/p99 {_fmt(lat['forecast'])} ms, "
            f"late p99/max {s.p99_late_ms:.2f}/{s.max_late_ms:.2f} ms, backlog {s.backlog}"
            f"{' VOID' if s.void else ''}{' ok' if s.ok else ''}"
        )
    if not trace:  # a traced run prints these among its per-layer metrics
        report.extend(f"  {name:<48} {value:>14.6g}" for name, value in {**client, **server_side}.items())
    report.append(f"speed probe after set-up {probe:.4f}s")
    correct = failed == 0
    if nominal.void:
        # A measurement flaw, not a wrong answer: the step's latencies
        # (per-layer metrics) are flagged, the answers were still checked.
        report.append(f"the {nominal.rate} req/s step is void: the sender fell behind")
    per_layer: dict[str, float] = {}
    if trace:
        per_layer = {**server["per_layer"], **client, **server_side}
        if per_layer["fitting.cache.lookups"]:
            failed += 1
            correct = False
            report.append("fit cache was consulted although it is off")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "report": report,
        "setup_probe_s": probe,
    }


def _fmt(values: list[float]) -> str:
    if not values:
        return "-"
    return f"{median(values):.3f}/{percentile(values, 99):.3f}"
