"""The QueryPlane end to end: one fabric, served and ticked at once."""

import asyncio

import pytest

from repro.core.service import ServeRequest
from repro.fabric import ControlPlane, FleetConfig, build_fleet
from repro.obs import ObservabilityRuntime
from repro.serve import QueryPlane, TrafficGenerator
from repro.workloads import generate_customers


@pytest.fixture(scope="module")
def fabric():
    plane = ControlPlane()
    build_fleet(
        plane,
        FleetConfig(seed=0, days=6, include=("doppler", "peregrine")),
    )
    plane.run_days(2)
    yield plane
    plane.close()


def _recommend(customer, tenant="contoso", deadline=None) -> ServeRequest:
    return ServeRequest(
        op="recommend", subject=customer, tenant=tenant, deadline=deadline
    )


def _customer(seed: int = 5):
    return generate_customers(1, rng=seed)[0]


def _run(coro):
    return asyncio.run(coro)


class TestRequestPath:
    def test_recommend_roundtrip_opens_a_session(self, fabric):
        plane = QueryPlane(fabric)
        response = _run(plane.handle("doppler", _recommend(_customer())))
        assert response.status == 200
        assert response.result.sku.name
        session = plane.sessions.peek("contoso")
        assert session is not None and session.ok == 1

    def test_unknown_endpoint_is_404(self, fabric):
        plane = QueryPlane(fabric)
        response = _run(plane.handle("teleport", ServeRequest(op="recommend")))
        assert response.status == 404

    def test_unknown_op_is_404_from_the_driver(self, fabric):
        plane = QueryPlane(fabric)
        response = _run(
            plane.handle("doppler", ServeRequest(op="teleport", tenant="t"))
        )
        assert response.status == 404

    def test_peregrine_stats_served(self, fabric):
        plane = QueryPlane(fabric)
        response = _run(
            plane.handle("peregrine", ServeRequest(op="stats", tenant="t"))
        )
        assert response.status == 200
        assert response.result["jobs"] > 0

    def test_repeat_request_hits_the_cache_with_the_same_object(self, fabric):
        plane = QueryPlane(fabric)
        customer = _customer()
        first = _run(plane.handle("doppler", _recommend(customer)))
        second = _run(plane.handle("doppler", _recommend(customer)))
        assert second is first  # the cached response object itself
        assert plane.cache.hits == 1
        assert plane.sessions.peek("contoso").cache_hits == 1

    def test_tenants_do_not_share_cache_entries(self, fabric):
        plane = QueryPlane(fabric)
        customer = _customer()
        _run(plane.handle("doppler", _recommend(customer, tenant="a")))
        _run(plane.handle("doppler", _recommend(customer, tenant="b")))
        assert plane.cache.hits == 0


class TestAdmissionOnThePlane:
    def test_over_rate_tenant_gets_429(self, fabric):
        plane = QueryPlane(fabric, rate_per_tenant=0.001, burst=1.0)

        async def drive():
            first = await plane.handle("doppler", _recommend(_customer(6)))
            second = await plane.handle("doppler", _recommend(_customer(7)))
            return first, second

        first, second = _run(drive())
        assert first.status == 200
        assert second.status == 429
        assert plane.sessions.peek("contoso").rejected == 1

    def test_overload_sheds_with_503(self, fabric):
        plane = QueryPlane(fabric, max_queue_depth=2)
        customers = generate_customers(12, rng=8)

        async def drive():
            return await plane.handle_many(
                "doppler", [_recommend(c) for c in customers]
            )

        responses = _run(drive())
        statuses = {r.status for r in responses}
        assert 503 in statuses  # overload shed
        assert 200 in statuses  # goodput preserved
        assert plane.admission.shed > 0

    def test_expired_deadline_gets_504(self, fabric):
        plane = QueryPlane(fabric)
        response = _run(
            plane.handle("doppler", _recommend(_customer(), deadline=-1.0))
        )
        assert response.status == 504


class TestObservability:
    def test_serve_metrics_land_in_the_store_via_aliases(self, fabric):
        obs = ObservabilityRuntime()
        plane = QueryPlane(fabric, obs=obs)
        _run(plane.handle("doppler", _recommend(_customer())))
        resolve = obs.store.aliases.resolve
        _, latencies = obs.store.series(resolve("serve.latency.seconds"))
        assert latencies.size == 1
        _, throughput = obs.store.series(
            resolve("serve.requests"), dimensions={"endpoint": "doppler"}
        )
        assert throughput.size == 1
        _, sessions = obs.store.series(resolve("serve.sessions.active"))
        assert float(sessions[-1]) == 1.0

    def test_requests_emit_serve_layer_spans(self, fabric):
        obs = ObservabilityRuntime()
        plane = QueryPlane(fabric, obs=obs)
        _run(plane.handle("doppler", _recommend(_customer())))
        names = [s.name for s in obs.tracer.spans]
        assert "serve.doppler.recommend" in names

    def test_rollup_shows_the_serve_layer_after_flush(self, fabric):
        obs = ObservabilityRuntime()
        plane = QueryPlane(fabric, obs=obs)
        _run(plane.handle("doppler", _recommend(_customer())))
        obs.flush()
        assert "serve" in obs.layer_rollup()


class TestBackgroundTicking:
    def test_tick_advances_the_fabric_between_queries(self):
        fabric = ControlPlane()
        build_fleet(
            fabric,
            FleetConfig(seed=0, days=4, include=("doppler", "peregrine")),
        )
        fabric.run_days(2)
        try:
            plane = QueryPlane(fabric)
            customer = _customer()

            async def drive():
                first = await plane.handle("doppler", _recommend(customer))
                await plane.tick_background(1)
                second = await plane.handle("doppler", _recommend(customer))
                return first, second

            first, second = _run(drive())
            assert fabric.day == 3
            assert plane.ticked_days == 1
            assert first.status == 200 and second.status == 200
            # The tick moved the endpoint's epoch: the second lookup is
            # a fresh model call, never the pre-tick cache entry.
            assert plane.cache.hits == 0
            assert second is not first
        finally:
            fabric.close()


class TestTrafficGenerator:
    def test_same_seed_same_stream(self, fabric):
        first = TrafficGenerator(fabric, seed=3).stream(20)
        second = TrafficGenerator(fabric, seed=3).stream(20)
        assert [(e, r.op, r.tenant) for e, r in first] == [
            (e, r.op, r.tenant) for e, r in second
        ]

    def test_only_fabric_endpoints_are_generated(self, fabric):
        generator = TrafficGenerator(fabric, seed=0)
        assert set(generator.endpoints()) <= set(fabric.service_names())

    def test_stats_rollup_is_json_serializable(self, fabric):
        import json

        plane = QueryPlane(fabric)
        generator = TrafficGenerator(fabric, seed=1)

        async def drive():
            for endpoint, request in generator.stream(10):
                await plane.handle(endpoint, request)
            plane.drain()

        _run(drive())
        payload = json.loads(json.dumps(plane.stats()))
        assert payload["requests"] == 10
        assert "p99" in payload["latency"]

    def test_streaming_fleet_builds_a_steering_pool(self):
        # Steering holds the fleet's day view: the template pool comes
        # from the view's day range.
        plane = ControlPlane()
        build_fleet(
            plane,
            FleetConfig(
                seed=0,
                days=2,
                jobs_per_day=1200,
                include=("steering", "peregrine"),
            ),
        )
        try:
            plane.run_days(1)
            generator = TrafficGenerator(
                plane, seed=0, mix={"steering": 1.0, "peregrine": 1.0}
            )
            assert "steering" in generator.endpoints()
            _op, templates, _params = generator.pools["steering"]
            assert templates and len(set(templates)) == len(templates)
            endpoints = {endpoint for endpoint, _r in generator.stream(40)}
            assert "steering" in endpoints
        finally:
            plane.close()
