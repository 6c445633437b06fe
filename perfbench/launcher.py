"""Server process of the ``serve_mixed`` workload.

Usage::

    python3 perfbench/launcher.py --seed N --points P --out FILE [--trace]

Builds a :class:`repro.serving.server.ForecastServer` (batched engine,
fit cache off, serial executor), registers the workload's streams and
runs each one's first fit, then serves on an ephemeral local port and
prints ``READY <port>``. Lines on stdin control it: ``mark NAME``
records the time, the process CPU time and the server counters under
NAME; ``stop`` (or end of input) shuts the server down. On exit it
writes the marks, peak memory and, with ``--trace``, the spans' per-layer
summary to FILE as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from streams import make_streams  # noqa: E402

#: Scheduling niceness of the server process. The open-loop client shares
#: the machine's CPUs with the server's event loop and refit worker; at
#: the default priority it often waited milliseconds for a CPU and sent
#: late. A nicer server lets the client preempt it as soon as it wakes.
SERVER_NICE = 5


def serving_layers(
    tracer: tracing.Tracer, window: tuple[float, float], loop_thread: int
) -> dict[str, float]:
    """Per-layer metrics of the session and forecaster inside *window*."""
    layer = tracing.layer_times(tracer.spans, window)

    def span(name: str, key: str) -> float:
        return layer.get(name, {}).get(key, 0.0)

    ticks = span("serving.session.refit_plans", "calls")
    executed = [
        s for s in tracer.spans
        if s[tracing.NAME] == "serving.session.execute_refits"
        and window[0] <= s[tracing.START] < window[1]
    ]
    refits = sum(s[tracing.EXTRA] for s in executed)
    forecasts = span("serving.online", "calls")
    # The server cannot be traced and untraced in one run: its overhead
    # is the time the tracer itself spent, measured inside each wrapper.
    overhead = tracing.bookkeeping_share(tracer.spans, window)
    out = tracing.summarize(tracer, loop_thread, [window], overhead, window)
    out.update(
        {
            "serving.session.refit_plans_ms_per_tick": 1e3
            * span("serving.session.refit_plans", "self_s") / max(ticks, 1),
            "serving.session.adopt_refits_ms_per_tick": 1e3
            * span("serving.session.adopt_refits", "self_s") / max(ticks, 1),
            "serving.session.execute_refits_busy_s": span(
                "serving.session.execute_refits", "busy_s"
            ),
            "serving.session.plans_per_tick": refits / max(len(executed), 1),
            "serving.session.refits_per_s": refits / (window[1] - window[0]),
            "serving.online.forecast_calls": forecasts,
            "serving.online.forecast_ms_per_call": 1e3
            * span("serving.online", "busy_s") / max(forecasts, 1),
        }
    )
    return out


async def serve(args: argparse.Namespace, tracer: tracing.Tracer) -> dict[str, Any]:
    from repro.fitting.options import EngineOptions
    from repro.serving.server import ForecastServer, ServerConfig

    options = EngineOptions(engine="batched", cache=False, executor="serial", trace=False)
    server = ForecastServer(ServerConfig(options=options))
    for stream in make_streams(args.seed, args.points):
        server.session.register(stream.key, family=stream.family, nominal=1.0)
        forecaster = server.session[stream.key]
        forecaster.observe_many(
            zip(stream.times[: stream.warm].tolist(), stream.values[: stream.warm].tolist())
        )
        forecaster.refit()
    _host, port = await server.start()

    loop = asyncio.get_running_loop()
    stopped = loop.create_future()
    marks: list[dict[str, Any]] = []

    def control() -> None:
        for line in sys.stdin:
            words = line.split()
            if words[:1] == ["mark"]:
                marks.append(
                    {
                        "name": words[1],
                        "t": time.perf_counter(),
                        "cpu_s": time.process_time(),
                        "counters": server.metrics.snapshot()["counters"],
                    }
                )
            elif words[:1] == ["stop"]:
                break
        loop.call_soon_threadsafe(stopped.set_result, None)

    reader = threading.Thread(target=control, daemon=True)
    reader.start()
    print(f"READY {port}", flush=True)
    await stopped
    await server.stop()
    reader.join(timeout=5.0)
    return {"marks": marks, "stats": server.stats()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points", type=int, required=True, help="episode length")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    os.nice(SERVER_NICE)
    tracer = tracing.Tracer()
    if args.trace:
        import repro.serving.server  # noqa: F401  (patch after import)

        tracing.install(tracer)
    else:
        tracer.enabled = False
    loop_thread = threading.get_ident()
    payload = asyncio.run(serve(args, tracer))
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        times = {mark["name"]: mark["t"] for mark in payload["marks"]}
        window = (times["step1"], times["step2"])
        payload["per_layer"] = serving_layers(tracer, window, loop_thread)
    Path(args.out).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
