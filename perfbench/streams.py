"""Seeded inputs of the ``serve_mixed`` workload, shared by the client
and the server launcher so both derive the same streams from the seed."""

from __future__ import annotations

from typing import Any, NamedTuple

N_STREAMS = 256
#: Families alternate across streams.
FAMILIES = ("competing_risks", "quadratic")
#: Each stream replays one synthetic outage episode of at least
#: MIN_CURVE_POINTS samples, one time unit apart.
MIN_CURVE_POINTS = 160
#: When its first fit runs in set-up, one stream in WARM_EVERY holds a
#: SHORT_WARM-point prefix of its episode (the batched engine's slow
#: case) and the rest hold half the episode.
SHORT_WARM = 8
WARM_EVERY = 16
SCENARIOS = "VUWLK"


def curve_points(observations_per_stream: int) -> int:
    """Episode length that leaves every stream enough unseen points."""
    return max(MIN_CURVE_POINTS, 2 * (observations_per_stream + 1))


class Stream(NamedTuple):
    key: str
    family: str
    warm: int
    times: Any  # numpy arrays, one sample per time unit
    values: Any


def make_streams(seed: int, n_points: int) -> list[Stream]:
    from repro.datasets.outage import episode_curve

    streams = []
    for index in range(N_STREAMS):
        curve = episode_curve(
            SCENARIOS[index % len(SCENARIOS)],
            index,
            seed=seed,
            n_points=n_points,
            horizon=float(n_points - 1),
        )
        streams.append(
            Stream(
                key=f"s{index:03d}",
                family=FAMILIES[(index // WARM_EVERY) % len(FAMILIES)],
                warm=SHORT_WARM if index % WARM_EVERY == 0 else n_points // 2,
                times=curve.times,
                values=curve.performance,
            )
        )
    return streams
