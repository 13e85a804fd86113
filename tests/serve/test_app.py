"""The ASGI app: routing, warm-pool sharing, batching bit-identity,
eviction accounting, and the process tier."""

import asyncio

import pytest

from repro.sweep import worker
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import Scenario, SweepSpec

from tests.serve.helpers import (
    BAD_DEPLOY_SETTINGS,
    SMALL_CHIP,
    SolveGate,
    asgi_request,
    small_deploy_body,
    small_solve_body,
    until,
    with_app,
)


def _small_scenario(**overrides):
    fields = dict(
        name="ref", task="solve",
        rows=SMALL_CHIP["rows"], cols=SMALL_CHIP["cols"],
        power_map=tuple(SMALL_CHIP["power_map"]),
        tec_tiles=tuple(SMALL_CHIP["tec_tiles"]),
        current_a=0.8,
    )
    fields.update(overrides)
    return Scenario(**fields)


def _bare_peak_c():
    scenario = _small_scenario(name="bare", tec_tiles=(), current_a=0.0)
    return worker.execute(0, scenario).values["peak_c"]


class TestRouting:
    def test_healthz(self):
        async def scenario(app):
            return await asgi_request(app, "GET", "/healthz")

        status, body = with_app(scenario)
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_endpoint_404(self):
        async def scenario(app):
            return await asgi_request(app, "POST", "/nope", {})

        status, body = with_app(scenario)
        assert status == 404
        assert "no such endpoint" in body["error"]

    def test_wrong_method_405(self):
        async def scenario(app):
            return await asgi_request(app, "GET", "/solve")

        status, body = with_app(scenario)
        assert status == 405

    def test_schema_error_400(self):
        async def scenario(app):
            return await asgi_request(app, "POST", "/solve", {"rows": 4})

        status, body = with_app(scenario)
        assert status == 400
        assert "geometry" in body["error"] or "tec_tiles" in body["error"]

    def test_trailing_slash_is_tolerated(self):
        async def scenario(app):
            return await asgi_request(app, "GET", "/healthz/")

        status, _ = with_app(scenario)
        assert status == 200


#: ``/solve`` body overrides on the 4x4 chip that must come back as a
#: 400 with a message, before any build (``json.dumps`` writes NaN and
#: Infinity literals, which the server's ``json.loads`` accepts).
BAD_SOLVE_BODIES = [
    ({"tec_tiles": [5, 99]}, "tec_tiles entry 99"),
    ({"tec_tiles": [-1]}, "tec_tiles entry -1"),
    ({"current_a": -1}, "current_a"),
    ({"current_a": float("nan")}, "current_a"),
    ({"current_a": float("inf")}, "current_a"),
    ({"currents_a": [0.5, float("nan")]}, "current_a"),
    ({"power_map": [-0.1] + [0.08] * 15}, "power_map"),
    ({"seebeck_factor": 0}, "seebeck_factor"),
    ({"limit_c": 10}, "limit_c"),
    ({"rows": 2.5, "cols": 4, "power_map": [0.08] * 10, "tec_tiles": [0]},
     "rows"),
    ({"rows": True, "cols": 16}, "rows"),
    ({"backend": "krylov"}, "backend"),
    ({"backend": "cholesky"}, "backend"),
    ({"tec_tiles": [5.7, True, 6, 9, 10]}, "tec_tiles"),
    # Chips the package cannot hold: a die wider than the default
    # spreader, and two chiplets on the same tiles.
    ({"rows": 40, "cols": 40, "power_map": [0.08] * 1600}, "spreader"),
    ({"rows": None, "cols": None, "power_map": None,
      "chiplets": [[4, 4, 0, 0, 5.0], [4, 4, 0, 2, 5.0]]}, "overlap"),
]


class TestBadInput:
    @pytest.mark.parametrize("overrides, fragment", BAD_SOLVE_BODIES)
    def test_solve_rejects_with_400_before_any_build(self, overrides, fragment):
        async def scenario(app):
            status, body = await asgi_request(
                app, "POST", "/solve", small_solve_body(**overrides)
            )
            return status, body, len(app.pool)

        status, body, pooled = with_app(scenario)
        assert status == 400
        assert fragment in body["error"]
        assert pooled == 0

    @pytest.mark.parametrize(
        "overrides, fragment",
        BAD_DEPLOY_SETTINGS + [
            ({"engine": "cold"}, "unknown field(s)"),
            ({"current_method": "golden"},
             "unknown field(s) in /deploy body: current_method"),
        ],
    )
    def test_deploy_rejects_bad_settings_with_400(self, overrides, fragment):
        async def scenario(app):
            return await asgi_request(
                app, "POST", "/deploy", small_deploy_body(**overrides)
            )

        status, body = with_app(scenario)
        assert status == 400
        assert fragment in body["error"]

    def test_sweep_rejects_an_unknown_benchmark_with_400(self):
        body = {"scenarios": [{"name": "s", "task": "greedy",
                               "benchmark": "nope"}]}

        async def scenario(app):
            return await asgi_request(app, "POST", "/sweep", body)

        status, body = with_app(scenario)
        assert status == 400
        assert "unknown benchmark 'nope'" in body["error"]

    def test_transient_rejects_out_of_range_tiles(self):
        async def scenario(app):
            return await asgi_request(
                app, "POST", "/transient",
                small_solve_body(tec_tiles=[16], dt=1e-3, steps=2),
            )

        status, body = with_app(scenario)
        assert status == 400
        assert "tec_tiles entry 16" in body["error"]

    def test_transient_rejects_a_die_wider_than_the_spreader(self):
        async def scenario(app):
            status, body = await asgi_request(
                app, "POST", "/transient",
                small_solve_body(rows=40, cols=40, power_map=[0.08] * 1600,
                                 dt=1e-3, steps=2),
            )
            return status, body, len(app.pool)

        status, body, pooled = with_app(scenario)
        assert status == 400
        assert "spreader" in body["error"]
        assert pooled == 0

    def test_transient_rejects_fractional_steps(self):
        async def scenario(app):
            return await asgi_request(
                app, "POST", "/transient",
                small_solve_body(dt=1e-3, steps=2.7),
            )

        status, body = with_app(scenario)
        assert status == 400
        assert "steps" in body["error"]


#: Real-number fields of ``/deploy`` and ``/sweep`` given something
#: that is not a number: each ran as 1.0 (a bool) or reached the
#: worker raw and failed there with a traceback.
NOT_NUMBERS = [
    ({"power_scale": True}, "power_scale"),
    ({"current_tolerance": True}, "current_tolerance"),
    ({"seebeck_factor": "1.1x"}, "seebeck_factor"),
]


class TestRealNumberFields:
    """Numeric strings coerce to floats; anything else is a 400 that
    names the field."""

    @pytest.mark.parametrize("overrides, fragment", NOT_NUMBERS)
    def test_deploy_refuses_non_numbers_with_400(self, overrides, fragment):
        async def scenario(app):
            return await asgi_request(
                app, "POST", "/deploy", small_deploy_body(**overrides)
            )

        status, body = with_app(scenario)
        assert status == 400
        assert fragment + " must be a real number" in body["error"]

    @pytest.mark.parametrize("overrides, fragment", NOT_NUMBERS)
    def test_sweep_refuses_non_numbers_with_400(self, overrides, fragment):
        entry = dict(small_deploy_body(**overrides), name="g", task="greedy")

        async def scenario(app):
            return await asgi_request(
                app, "POST", "/sweep", {"scenarios": [entry]}
            )

        status, body = with_app(scenario)
        assert status == 400
        assert fragment + " must be a real number" in body["error"]

    def test_deploy_coerces_numeric_strings(self):
        body = small_deploy_body(power_scale="2", seebeck_factor="1.1")

        async def scenario(app):
            return await asgi_request(app, "POST", "/deploy", body)

        status, served = with_app(scenario, workers=1)
        assert status == 200
        reference = worker.execute(0, Scenario(
            name="deploy", task="greedy",
            rows=SMALL_CHIP["rows"], cols=SMALL_CHIP["cols"],
            power_map=tuple(SMALL_CHIP["power_map"]),
            power_scale=2.0, seebeck_factor=1.1,
        )).values
        assert served["values"] == reference

    def test_sweep_entry_coerces_numeric_strings(self):
        entry = dict(small_deploy_body(power_scale="2"), name="g",
                     task="greedy")

        async def scenario(app):
            return await asgi_request(
                app, "POST", "/sweep", {"scenarios": [entry]}
            )

        status, body = with_app(scenario, workers=1)
        assert status == 200
        assert body["errors"] == []
        reference = worker.execute(0, Scenario(
            name="g", task="greedy",
            rows=SMALL_CHIP["rows"], cols=SMALL_CHIP["cols"],
            power_map=tuple(SMALL_CHIP["power_map"]), power_scale=2.0,
        )).values
        assert body["results"][0]["values"] == reference


class TestWarmPoolSharing:
    def test_concurrent_same_chip_requests_share_one_session(self):
        """Two concurrent same-blueprint requests land on one warm
        session: the pool holds a single entry and the repeated
        request is answered from cache (``cache_hits > 0``).  The
        second arrives while the first one's batch is held open."""

        async def scenario(app):
            body = small_solve_body()
            warmup = await asgi_request(app, "POST", "/solve", body)
            gate = SolveGate(app)
            first = asyncio.ensure_future(
                asgi_request(app, "POST", "/solve", body)
            )
            await until(lambda: gate.sizes == [1])
            second = asyncio.ensure_future(
                asgi_request(app, "POST", "/solve", body)
            )
            await until(lambda: app.batcher.stats()["pending_keys"] == 1)
            gate.release()
            concurrent = await asyncio.gather(first, second)
            stats = await asgi_request(app, "GET", "/stats")
            return warmup, concurrent, stats, gate.sizes

        warmup, concurrent, stats, sizes = with_app(scenario)
        assert sizes == [1, 1]
        status, first = warmup
        assert status == 200
        assert first["results"][0]["pool"]["hit"] is False
        for status, body in concurrent:
            assert status == 200
            result = body["results"][0]
            assert result["pool"]["hit"] is True
            assert result["cache_hits"] > 0
        # The second request waited for the held batch, then ran.
        batcher = stats[1]["batcher"]
        assert batcher["in_flight"] == 0
        wait_ms = batcher["queue_wait_ms"]
        assert wait_ms["max"] >= wait_ms["mean"] > 0.0
        # One chip, one warm session, no rebuilds.
        pool_stats = stats[1]["pool"]
        assert len(pool_stats["entries"]) == 1
        assert pool_stats["misses"] == 1
        assert pool_stats["hits"] >= 1
        # All three requests returned the same temperatures.
        peaks = {
            body["results"][0]["values"]["peak_c"]
            for _, body in [warmup] + concurrent
        }
        assert len(peaks) == 1

    def test_disabled_pool_always_builds_cold(self):
        async def scenario(app):
            body = small_solve_body()
            first = await asgi_request(app, "POST", "/solve", body)
            second = await asgi_request(app, "POST", "/solve", body)
            stats = await asgi_request(app, "GET", "/stats")
            return first, second, stats

        first, second, stats = with_app(scenario, pool_size=0)
        for status, body in (first, second):
            assert status == 200
            assert body["results"][0]["pool"]["hit"] is False
        pool_stats = stats[1]["pool"]
        assert pool_stats["entries"] == []
        assert pool_stats["misses"] == 2
        # Cold and warm paths must agree bitwise.
        assert (
            first[1]["results"][0]["values"]
            == second[1]["results"][0]["values"]
        )


class TestBatchingBitIdentity:
    def test_batched_multi_current_matches_serial_worker(self):
        """A multi-current request queued behind a running batch rides
        the chip's next batch and still matches serial solves bitwise."""
        currents = [0.2, 0.5, 0.8, 1.1]

        async def scenario(app):
            gate = SolveGate(app)
            running = asyncio.ensure_future(asgi_request(
                app, "POST", "/solve", small_solve_body(current_a=0.3)
            ))
            await until(lambda: gate.sizes == [1])
            body = small_solve_body()
            del body["current_a"]
            body["currents_a"] = currents
            queued = asyncio.ensure_future(
                asgi_request(app, "POST", "/solve", body)
            )
            await until(lambda: app.batcher.stats()["requests"] == 5)
            gate.release()
            (first_status, _), response = await asyncio.gather(running, queued)
            assert first_status == 200
            return response, gate.sizes

        (status, body), sizes = with_app(scenario)
        assert sizes == [1, len(currents)]
        assert status == 200
        assert body["count"] == len(currents)
        for current, result in zip(currents, body["results"]):
            reference = worker.execute(
                0, _small_scenario(current_a=current)
            ).values
            assert result["values"] == reference

    def test_duplicate_points_coalesce_to_one_solve(self):
        async def scenario(app):
            gate = SolveGate(app)
            body = small_solve_body()
            del body["current_a"]
            body["currents_a"] = [0.7, 0.7, 0.7]
            pending = asyncio.ensure_future(
                asgi_request(app, "POST", "/solve", body)
            )
            await until(lambda: gate.sizes == [3])
            gate.release()
            response = await pending
            stats = await asgi_request(app, "GET", "/stats")
            return response, stats

        (status, body), (_, stats) = with_app(scenario)
        assert status == 200
        results = body["results"]
        assert [r["coalesced"] for r in results] == [False, True, True]
        assert len({r["values"]["peak_c"] for r in results}) == 1
        # One batch, one underlying solve for three requested points.
        assert stats["batcher"]["batches"] == 1


class TestBeyondRunaway:
    """A current at or beyond the chip's runaway limit is refused with a
    422 and a message — never a 500 or a non-physical state."""

    def test_solve_is_a_422(self):
        for overrides in ({}, {"backend": "direct"}, {"backend": "mg"}):
            async def scenario(app):
                return await asgi_request(
                    app, "POST", "/solve",
                    small_solve_body(current_a=1.0e6, **overrides),
                )

            status, body = with_app(scenario)
            assert status == 422, overrides
            assert body["error_type"] == "SingularSystemError"
            assert "runaway" in body["error"]

    def test_transient_is_a_422(self):
        async def scenario(app):
            return await asgi_request(
                app, "POST", "/transient",
                small_solve_body(current_a=1.0e6, dt=1e-3, steps=2),
            )

        status, body = with_app(scenario)
        assert status == 422
        assert body["error_type"] == "SingularSystemError"

    def test_coalesced_batch_answers_the_other_requests(self):
        self._coalesced_batch_answers_the_other_requests(1.0e6)

    def test_coalesced_mg_batch_answers_the_other_requests(self):
        """mg's CG converges on the indefinite operator past runaway;
        its non-physical state is refused for that request alone (600 A
        is about 1.5 lambda_m of this chip)."""
        self._coalesced_batch_answers_the_other_requests(600.0, backend="mg")

    @staticmethod
    def _coalesced_batch_answers_the_other_requests(refused, **overrides):
        currents = (0.8, refused, 0.5)

        async def scenario(app):
            gate = SolveGate(app)
            running = asyncio.ensure_future(asgi_request(
                app, "POST", "/solve",
                small_solve_body(current_a=0.3, **overrides),
            ))
            await until(lambda: gate.sizes == [1])
            queued = []
            for count, current in enumerate(currents, start=2):
                queued.append(asyncio.ensure_future(asgi_request(
                    app, "POST", "/solve",
                    small_solve_body(current_a=current, **overrides),
                )))
                await until(lambda: app.batcher.stats()["requests"] == count)
            gate.release()
            first, *responses = await asyncio.gather(running, *queued)
            assert first[0] == 200
            stats = await asgi_request(app, "GET", "/stats")
            return responses, stats, gate.sizes

        responses, (_, stats), sizes = with_app(scenario)
        # All three requests queued behind the running batch and rode
        # the next one together.
        assert sizes == [1, 3]
        assert stats["batcher"]["batches"] == 2
        assert [status for status, _ in responses] == [200, 422, 200]
        assert responses[1][1]["error_type"] == "SingularSystemError"
        assert "runaway" in responses[1][1]["error"]
        for current, (_, body) in zip(currents, responses):
            if current == refused:
                continue
            reference = worker.execute(
                0, _small_scenario(current_a=current, **overrides)
            ).values
            assert body["results"][0]["values"] == reference


class TestEvictionAccounting:
    def test_eviction_closes_stats_cleanly(self):
        async def scenario(app):
            chip_a = small_solve_body()
            chip_b = small_solve_body(power_scale=1.2)
            await asgi_request(app, "POST", "/solve", chip_a)
            _, before = await asgi_request(app, "GET", "/stats")
            await asgi_request(app, "POST", "/solve", chip_b)  # evicts chip A
            _, after = await asgi_request(app, "GET", "/stats")
            return before, after

        before, after = with_app(scenario, pool_size=1)
        assert len(before["pool"]["entries"]) == 1
        assert len(after["pool"]["entries"]) == 1
        assert after["pool"]["evictions"] == 1
        assert after["pool"]["retired_entries"] == 1
        # The evicted session's counters moved into the retired
        # aggregate: lifetime totals never shrink.
        solves_before = before["pool"]["lifetime_solver_stats"]["solves"]
        solves_after = after["pool"]["lifetime_solver_stats"]["solves"]
        assert after["pool"]["retired_solver_stats"]["solves"] > 0
        assert solves_after >= solves_before


class TestTransient:
    def test_matches_serial_worker(self):
        scenario_ref = _small_scenario(
            name="transient", task="transient", dt=1e-3, steps=8
        )

        async def scenario(app):
            body = small_solve_body(dt=1e-3, steps=8)
            return await asgi_request(app, "POST", "/transient", body)

        status, body = with_app(scenario)
        assert status == 200
        assert body["values"] == worker.execute(0, scenario_ref).values


class TestProcessTier:
    def test_deploy_matches_serial_worker(self):
        limit_c = _bare_peak_c() - 0.5
        chip = {
            "rows": SMALL_CHIP["rows"],
            "cols": SMALL_CHIP["cols"],
            "power_map": list(SMALL_CHIP["power_map"]),
            "limit_c": limit_c,
        }

        async def scenario(app):
            return await asgi_request(app, "POST", "/deploy", chip)

        status, body = with_app(scenario, workers=1)
        assert status == 200
        reference = worker.execute(
            0,
            Scenario(
                name="deploy", task="greedy",
                rows=chip["rows"], cols=chip["cols"],
                power_map=tuple(chip["power_map"]), limit_c=limit_c,
            ),
        ).values
        assert body["values"] == reference
        assert body["values"]["feasible"] is True

    def test_in_scenario_failure_is_a_422(self):
        chip = {
            "rows": SMALL_CHIP["rows"],
            "cols": SMALL_CHIP["cols"],
            "power_map": list(SMALL_CHIP["power_map"]),
            "limit_c": 10.0,  # below ambient: problem construction raises
        }

        async def scenario(app):
            return await asgi_request(app, "POST", "/deploy", chip)

        status, body = with_app(scenario, workers=1)
        assert status == 422
        assert body["kind"] == "scenario"
        assert body["error_type"] == "ValueError"
        assert body["traceback"]

    def test_infinite_limit_is_a_422(self):
        """``json.loads`` reads ``Infinity``; the problem refuses it
        like any other limit that cannot be met or is no limit."""
        body = {"benchmark": "hc08", "limit_c": float("inf")}

        async def scenario(app):
            return await asgi_request(app, "POST", "/deploy", body)

        status, body = with_app(scenario, workers=1)
        assert status == 422
        assert body["error_type"] == "ValueError"
        assert "finite" in body["error"]

    def test_sweep_matches_serial_runner(self):
        spec = SweepSpec(
            scenarios=(
                _small_scenario(name="i-low", current_a=0.3),
                _small_scenario(name="i-high", current_a=0.9),
            ),
            name="served",
        )
        wire = {
            "name": spec.name,
            "scenarios": [
                {
                    "name": s.name, "task": s.task, "rows": s.rows,
                    "cols": s.cols, "power_map": list(s.power_map),
                    "tec_tiles": list(s.tec_tiles), "current_a": s.current_a,
                }
                for s in spec
            ],
        }

        async def scenario(app):
            return await asgi_request(app, "POST", "/sweep", wire)

        status, body = with_app(scenario, workers=1)
        assert status == 200
        reference = SweepRunner(None).run(spec)
        assert body["spec_name"] == "served"
        assert body["errors"] == []
        served = {r["name"]: r["values"] for r in body["results"]}
        expected = {r.name: r.values for r in reference.results}
        assert served == expected
        assert "summary" in body


class TestDefaultBackend:
    """``ServeConfig.default_backend`` fills unset request backends.

    The default participates in the warm-pool blueprint key (a request
    answered by a direct session must never share a pool entry with a
    reuse one), and an explicit per-request ``backend`` always wins
    over the server default.
    """

    def test_removed_batch_window_field_is_refused(self):
        from repro.serve import ServeConfig

        with pytest.raises(TypeError, match="batch_window_s"):
            ServeConfig(batch_window_s=0.005)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_nonpositive_threads_rejected(self, threads):
        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match="threads must be >= 1"):
            ServeConfig(threads=threads)

    def test_invalid_default_backend_rejected(self):
        import pytest

        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match="default_backend"):
            ServeConfig(default_backend="jacobi")

    @pytest.mark.parametrize("backend", ["krylov", "cholesky"])
    def test_removed_default_backend_rejected(self, backend):
        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match="default_backend"):
            ServeConfig(default_backend=backend)

    def test_stats_expose_the_default(self):
        async def scenario(app):
            return await asgi_request(app, "GET", "/stats")

        _, stats = with_app(scenario, default_backend="direct")
        assert stats["config"]["default_backend"] == "direct"

    def test_default_backend_enters_the_pool_key(self):
        body = small_solve_body()

        async def scenario(app):
            return await asgi_request(app, "POST", "/solve", body)

        _, defaulted = with_app(scenario, default_backend="direct")
        _, explicit = with_app(
            scenario_with(body, backend="direct"), default_backend=None
        )
        _, plain = with_app(scenario, default_backend=None)
        assert defaulted["pool_key"] == explicit["pool_key"]
        assert defaulted["pool_key"] != plain["pool_key"]

    def test_explicit_backend_wins_over_default(self):
        async def scenario(app):
            return await asgi_request(
                app, "POST", "/solve", small_solve_body(backend="reuse")
            )

        _, explicit = with_app(scenario, default_backend="direct")
        _, plain_reuse = with_app(scenario, default_backend=None)
        assert explicit["pool_key"] == plain_reuse["pool_key"]

    def test_defaulted_solve_matches_explicit_values(self):
        async def defaulted(app):
            return await asgi_request(
                app, "POST", "/solve", small_solve_body()
            )

        async def explicit(app):
            return await asgi_request(
                app, "POST", "/solve", small_solve_body(backend="direct")
            )

        _, a = with_app(defaulted, default_backend="direct")
        _, b = with_app(explicit)
        assert a["results"][0]["values"] == b["results"][0]["values"]


def scenario_with(body, **overrides):
    request = dict(body, **overrides)

    async def scenario(app):
        return await asgi_request(app, "POST", "/solve", request)

    return scenario
