"""Load-generator tests: event flattening, percentiles, and run_loadgen.

:func:`run_loadgen` runs here against an in-process
:class:`PredictionServer`, plain and durable, through backpressure, and
twice in a row against one durable server.
"""

import asyncio

from repro.isa.instruction import OpClass
from repro.serve.loadgen import percentile_ns, run_loadgen, trace_to_events
from repro.serve.server import PredictionServer, ServerConfig
from repro.serve.session import spec_from_name
from repro.workloads.generator import generate_trace


class TestTraceToEvents:
    def test_events_cover_every_instruction_exactly_once(self):
        trace = generate_trace("coremark", 3000)
        events = trace_to_events(trace)
        explicit = sum(1 for e in events if e["k"] != "t")
        ticked = sum(e["n"] for e in events if e["k"] == "t")
        assert explicit + ticked == len(trace)

    def test_event_kinds_match_opclasses(self):
        trace = generate_trace("coremark", 3000)
        events = trace_to_events(trace)
        loads = sum(
            1 for i in trace.instructions if i.op is OpClass.LOAD
        )
        stores = sum(
            1 for i in trace.instructions if i.op is OpClass.STORE
        )
        branches = sum(
            1 for i in trace.instructions if i.op.is_branch
        )
        assert sum(1 for e in events if e["k"] == "l") == loads
        assert sum(1 for e in events if e["k"] == "s") == stores
        assert sum(1 for e in events if e["k"] == "b") == branches

    def test_tick_runs_are_coalesced(self):
        trace = generate_trace("coremark", 3000)
        events = trace_to_events(trace)
        for first, second in zip(events, events[1:]):
            assert not (first["k"] == "t" and second["k"] == "t"), \
                "adjacent tick events should have been merged"


class TestPercentiles:
    def test_empty_is_zero(self):
        assert percentile_ns([], 0.5) == 0

    def test_nearest_rank_on_known_list(self):
        ordered = list(range(1, 101))  # 1..100
        assert percentile_ns(ordered, 0.50) == 50
        assert percentile_ns(ordered, 0.95) == 95
        assert percentile_ns(ordered, 0.99) == 99
        assert percentile_ns(ordered, 1.0) == 100

    def test_single_sample(self):
        assert percentile_ns([7], 0.99) == 7

    def test_small_samples_clamp_to_max(self):
        # p99 of fewer than 100 samples must read the max element --
        # never index past the end, never collapse toward p95.
        for n in (1, 2, 5, 50, 99):
            ordered = list(range(1, n + 1))
            assert percentile_ns(ordered, 0.99) == n

    def test_exact_boundary_is_not_float_ceiled(self):
        # Regression: 0.7 * 10 is 7.000000000000001 in binary floating
        # point, so a float ceil read rank 8 where nearest-rank says 7.
        assert percentile_ns(list(range(1, 11)), 0.7) == 7
        assert percentile_ns(list(range(1, 1001)), 0.7) == 700

    def test_property_matches_exact_nearest_rank(self):
        # Nearest-rank definition, computed in exact rational
        # arithmetic: rank = ceil(n * p), clamped to [1, n].
        import math
        from fractions import Fraction

        for n in (1, 3, 7, 10, 99, 100, 101, 250):
            ordered = list(range(1, n + 1))
            for percent in range(0, 101):
                fraction = percent / 100
                rank = math.ceil(n * Fraction(percent, 100))
                expected = ordered[min(n, max(1, rank)) - 1]
                assert percentile_ns(ordered, fraction) == expected, (
                    n, percent
                )

    def test_monotonic_in_fraction(self):
        ordered = sorted([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5])
        values = [percentile_ns(ordered, p / 100) for p in range(101)]
        assert values == sorted(values)
        assert values[-1] == ordered[-1]


EVENTS_PER_REQUEST = 64


def _drive(config: ServerConfig, runs: int = 1, **loadgen_params):
    """``runs`` consecutive :func:`run_loadgen` calls against one server.

    Returns the lane dicts, the number of chunks one session replays,
    and the server's durability stats (``None`` without a data dir).
    """
    events = trace_to_events(generate_trace("coremark", 1500))
    chunks = -(-len(events) // EVENTS_PER_REQUEST)

    async def scenario():
        server = PredictionServer(config)
        await server.start()
        try:
            lanes = [
                await run_loadgen(
                    "127.0.0.1", server.port, events,
                    spec_from_name("lvp", 64),
                    events_per_request=EVENTS_PER_REQUEST,
                    **loadgen_params,
                )
                for _ in range(runs)
            ]
            durability = (
                server.durability.stats.as_dict()
                if server.durability is not None else None
            )
        finally:
            await server.drain()
        return lanes, durability

    lanes, durability = asyncio.run(scenario())
    return lanes, chunks, durability


def _assert_clean(lane: dict, sessions: int, chunks: int) -> None:
    assert lane["requests_failed"] == 0, lane["error_codes"]
    assert lane["stream_errors"] == 0
    assert lane["requests_ok"] == sessions * chunks
    assert 0 < lane["p50_ns"] <= lane["p95_ns"] <= lane["p99_ns"]
    assert lane["p99_ns"] <= lane["max_ns"]
    assert "median_ns" not in lane


class TestRunLoadgen:
    def test_plain_sessions(self):
        (lane,), chunks, durability = _drive(ServerConfig(), sessions=3)
        _assert_clean(lane, 3, chunks)
        assert lane["durable"] is False
        assert durability is None

    def test_durable_sessions_write_ahead_log_every_request(self, tmp_path):
        (lane,), chunks, durability = _drive(
            ServerConfig(data_dir=str(tmp_path)), sessions=2, durable=True,
        )
        _assert_clean(lane, 2, chunks)
        assert lane["durable"] is True
        assert durability["wal_appends"] >= lane["requests_ok"]

    def test_second_durable_run_against_one_server(self, tmp_path):
        # A closed durable session cannot be reopened, so each run must
        # name its sessions afresh.
        lanes, chunks, _ = _drive(
            ServerConfig(data_dir=str(tmp_path)), runs=2,
            sessions=2, durable=True,
        )
        for lane in lanes:
            _assert_clean(lane, 2, chunks)

    def test_backpressure_is_retried_not_failed(self):
        (lane,), chunks, _ = _drive(
            ServerConfig(max_queue=1), sessions=4, pipeline_depth=4,
        )
        assert lane["backpressure_retries"] > 0
        _assert_clean(lane, 4, chunks)

    def test_refused_open_is_a_failed_request(self):
        # A durable open against a server without a data dir is refused;
        # the refusal is tallied, not raised out of run_loadgen.
        (lane,), _, _ = _drive(ServerConfig(), sessions=2, durable=True)
        assert lane["requests_ok"] == 0
        assert lane["requests_failed"] == 2
        assert lane["error_codes"] == {"durability-disabled": 2}
