"""Multi-tenant gateway: auth, rate limits, quotas, envelopes, metrics."""

import json

import numpy as np
import pytest

from repro.serve.engine import ServingEngine
from repro.serve.errors import (
    AuthenticationError,
    QuotaExceededError,
    RateLimitedError,
    ServingError,
)
from repro.serve.gateway import (
    ErrorEnvelope,
    Gateway,
    GatewayConfig,
    ResponseEnvelope,
    TenantConfig,
)
from repro.serve.kvcache import KVCacheConfig
from repro.serve.repository import ModelRepository
from repro.serve.requests import InferenceRequest, WorkloadFamily
from repro.serve.sampling import SamplingParams


@pytest.fixture(scope="module")
def repo():
    repository = ModelRepository(bits=4, seed=0)
    repository.get("gpt2-xl", WorkloadFamily.LM)
    return repository


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def tenants():
    return (
        TenantConfig(
            name="interactive",
            api_key="key-interactive",
            priority=10,
            requests_per_second=2.0,
            burst=2,
            max_concurrent=4,
        ),
        TenantConfig(
            name="batch", api_key="key-batch", priority=0, max_concurrent=2
        ),
    )


def build_gateway(repo, clock=None, config=None, **engine_kwargs):
    clock = clock or FakeClock()
    config = config or GatewayConfig(tenants=tenants())
    engine = ServingEngine(
        repo,
        clock=clock,
        kv_cache_config=KVCacheConfig(bits=4, page_size=8),
        num_slots=4,
        admission=config.admission_policy(),
        health=config.health_config(),
        **engine_kwargs,
    )
    return Gateway(engine, config), clock


def lm_request(seq_len=8, max_new_tokens=2, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return InferenceRequest(
        "gpt2-xl",
        WorkloadFamily.LM,
        rng.integers(0, 96, size=seq_len),
        sampling=SamplingParams(max_new_tokens=max_new_tokens),
        **kwargs,
    )


class TestConfig:
    def test_tenant_slo_class_defaults_to_name(self):
        tenant = TenantConfig(name="acme", api_key="k")
        assert tenant.slo_class == "acme"
        assert tenant.slo().name == "acme"

    def test_duplicate_names_and_keys_rejected(self):
        with pytest.raises(ServingError):
            GatewayConfig(tenants=(
                TenantConfig(name="a", api_key="k1"),
                TenantConfig(name="a", api_key="k2"),
            ))
        with pytest.raises(ServingError):
            GatewayConfig(tenants=(
                TenantConfig(name="a", api_key="k"),
                TenantConfig(name="b", api_key="k"),
            ))

    def test_derived_admission_policy_and_health_config(self):
        config = GatewayConfig(tenants=tenants(), max_queue_depth=9)
        policy = config.admission_policy()
        assert policy.max_queue_depth == 9
        assert policy.class_priority == {"interactive": 10, "batch": 0}
        assert policy.preempt
        health = config.health_config()
        assert {c.name for c in health.classes} == {"interactive", "batch"}

    def test_field_validation(self):
        with pytest.raises(ServingError):
            TenantConfig(name="", api_key="k")
        with pytest.raises(ServingError):
            TenantConfig(name="a", api_key="k", requests_per_second=0)
        with pytest.raises(ServingError):
            TenantConfig(name="a", api_key="k", burst=0)
        with pytest.raises(ServingError):
            TenantConfig(name="a", api_key="k", max_concurrent=0)
        with pytest.raises(ServingError):
            GatewayConfig(tenants=())


class TestAuthentication:
    def test_unknown_key_is_401(self, repo):
        gateway, _ = build_gateway(repo)
        envelope = gateway.submit("wrong-key", lm_request())
        assert envelope.status == 401
        assert envelope.error.code == "AuthenticationError"
        assert not envelope.error.retryable

    def test_auth_rejection_counted_without_echoing_key(self, repo):
        gateway, _ = build_gateway(repo)
        gateway.submit("attacker-key", lm_request())
        text = gateway.engine.metrics_text()
        assert "attacker-key" not in text
        assert 'reason="auth"' in text

    def test_authenticate_raises_for_async_path(self, repo):
        gateway, _ = build_gateway(repo)
        with pytest.raises(AuthenticationError):
            gateway.authenticate("nope")


class TestRateLimitAndQuota:
    def test_token_bucket_denies_then_refills(self, repo):
        gateway, clock = build_gateway(repo)
        assert gateway.submit("key-interactive", lm_request(seed=1)).status == 202
        assert gateway.submit("key-interactive", lm_request(seed=2)).status == 202
        third = gateway.submit("key-interactive", lm_request(seed=3))
        assert third.status == 429
        assert third.error.code == "RateLimitedError"
        assert third.error.retryable
        clock.t += 1.0  # 2 rps -> two tokens refill
        assert gateway.submit("key-interactive", lm_request(seed=4)).status == 202

    def test_quota_denies_until_requests_finish(self, repo):
        gateway, _ = build_gateway(repo)
        first = lm_request(seed=10)
        second = lm_request(seed=11)
        assert gateway.submit("key-batch", first).status == 202
        assert gateway.submit("key-batch", second).status == 202
        over = gateway.submit("key-batch", lm_request(seed=12))
        assert over.status == 429
        assert over.error.code == "QuotaExceededError"
        assert gateway.inflight("batch") == 2
        gateway.run_until_idle()
        assert gateway.inflight("batch") == 0
        assert gateway.submit("key-batch", lm_request(seed=13)).status == 202

    def test_rejections_carry_tenant_label(self, repo):
        gateway, _ = build_gateway(repo)
        for seed in range(3):
            gateway.submit("key-interactive", lm_request(seed=seed))
        text = gateway.engine.metrics_text()
        assert (
            'serve_requests_rejected_total{reason="rate_limit",'
            'slo_class="interactive",tenant="interactive"}'
        ) in text


class TestEnvelopes:
    def test_accept_then_poll_then_result(self, repo):
        gateway, _ = build_gateway(repo)
        request = lm_request(seed=20, max_new_tokens=3)
        accepted = gateway.submit("key-interactive", request)
        assert accepted.status == 202 and accepted.ok
        assert accepted.body == {"state": "accepted"}
        pending = gateway.poll(request.request_id)
        assert pending.status == 202
        gateway.run_until_idle()
        done = gateway.poll(request.request_id)
        assert done.status == 200
        assert done.tenant == "interactive"
        assert done.body["finish_reason"] == "length"
        assert len(done.body["token_ids"]) == 3
        # The envelope is JSON-serializable end to end.
        payload = json.loads(done.to_json())
        assert payload["status"] == 200

    def test_unknown_request_is_404(self, repo):
        gateway, _ = build_gateway(repo)
        missing = gateway.poll("never-submitted")
        assert missing.status == 404
        assert missing.error.code == "not_found"

    def test_handle_wire_payloads(self, repo):
        gateway, _ = build_gateway(repo)
        ok = gateway.handle({
            "api_key": "key-batch",
            "model": "gpt2-xl",
            "family": "lm",
            "token_ids": [1, 2, 3, 4],
            "max_new_tokens": 2,
        })
        assert ok.status == 202
        gateway.run_until_idle()
        assert gateway.poll(ok.request_id).status == 200

        assert gateway.handle("not a dict").status == 400
        assert gateway.handle({"model": "gpt2-xl"}).status == 401
        bad = gateway.handle({"api_key": "key-batch", "model": "gpt2-xl"})
        assert bad.status == 400

    def test_malformed_request_is_400(self, repo):
        gateway, _ = build_gateway(repo)
        envelope = gateway.handle({
            "api_key": "key-batch",
            "model": "no-such-model",
            "token_ids": [1, 2],
            "max_new_tokens": 1,
        })
        gateway.run_until_idle()
        final = gateway.poll(envelope.request_id)
        # Unknown model fails at serve time: terminal 500 with the error.
        assert final.status == 500
        assert not final.error.retryable


class TestTenantThreading:
    def test_finished_metrics_carry_tenant(self, repo):
        gateway, _ = build_gateway(repo)
        gateway.submit("key-interactive", lm_request(seed=30))
        gateway.run_until_idle()
        text = gateway.engine.metrics_text()
        assert (
            'serve_requests_finished_total{reason="length",'
            'slo_class="interactive",tenant="interactive"}'
        ) in text
        assert (
            'serve_requests_submitted_total{tenant="interactive",'
            'slo_class="interactive"}'
        ) in text

    def test_per_tenant_slo_gauges(self, repo):
        gateway, _ = build_gateway(repo)
        gateway.submit("key-interactive", lm_request(seed=31))
        gateway.run_until_idle()
        gateway.engine.health.evaluate()
        report = gateway.engine.health_report()
        assert set(report["slo"]) == {"interactive", "batch"}
        assert report["slo"]["interactive"]["availability"]["attainment"] == 1.0

    def test_queue_depth_by_tenant_in_snapshot(self, repo):
        gateway, _ = build_gateway(repo)
        # Fill the slots, then queue more so depth is visible.
        for seed in range(6):
            gateway.submit("key-interactive", lm_request(seed=40 + seed,
                                                         max_new_tokens=4))
        snapshot = gateway.engine.lm_scheduler.resource_snapshot()
        assert "queue_depth_by_tenant" in snapshot
        assert "queue_depth_by_class" in snapshot
        assert "queue_depth_by_priority" in snapshot
        if snapshot["queue_depth"]:
            assert snapshot["queue_depth_by_tenant"].get("interactive")
        gateway.run_until_idle()


class TestStepAndFailures:
    def test_step_returns_settled_envelopes(self, repo):
        gateway, _ = build_gateway(repo)
        request = lm_request(seed=50)
        gateway.submit("key-batch", request)
        settled = []
        for _ in range(100):
            settled += gateway.step(force=True)
            if settled:
                break
        assert settled[0].request_id == request.request_id
        assert settled[0].status == 200

    def test_failure_settles_as_500_and_releases_quota(self, repo):
        gateway, _ = build_gateway(repo)
        bad = InferenceRequest(
            "no-such-model", WorkloadFamily.LM,
            np.arange(4), sampling=SamplingParams(max_new_tokens=1),
        )
        assert gateway.submit("key-batch", bad).status == 202
        assert gateway.inflight("batch") == 1
        for _ in range(100):
            gateway.step(force=True)
            if gateway.poll(bad.request_id).status != 202:
                break
        final = gateway.poll(bad.request_id)
        assert final.status == 500
        assert gateway.inflight("batch") == 0


class TestAsyncHelper:
    def test_infer_async_charges_and_releases(self, repo):
        import asyncio

        from repro.serve.aio import AsyncServer

        async def scenario():
            clock = FakeClock()
            config = GatewayConfig(tenants=tenants())
            engine = ServingEngine(
                repo,
                clock=clock,
                kv_cache_config=KVCacheConfig(bits=4, page_size=8),
                num_slots=4,
                admission=config.admission_policy(),
                health=config.health_config(),
            )
            gateway = Gateway(engine, config)
            async with AsyncServer(engine=engine) as server:
                result = await gateway.infer_async(
                    server, "key-interactive", lm_request(seed=60)
                )
                assert result.output.finish_reason == "length"
                assert gateway.inflight("interactive") == 0
                with pytest.raises(AuthenticationError):
                    await gateway.infer_async(server, "bad", lm_request(seed=61))

        asyncio.run(scenario())


class TestEnvelopeTypes:
    def test_error_envelope_dict_shape(self):
        envelope = ResponseEnvelope(
            status=429,
            request_id="r1",
            tenant="t",
            error=ErrorEnvelope(code="RateLimitedError", message="slow down",
                                retryable=True),
        )
        payload = envelope.as_dict()
        assert payload["error"] == {
            "code": "RateLimitedError",
            "message": "slow down",
            "retryable": True,
        }
        assert not envelope.ok


class TestClockJumpResilience:
    """A fault-injected clock jump must not mint unlimited rate tokens.

    Two halves to the bug this pins: the bucket refill clamps to ``burst``
    (a jump mints at most one burst, never an unbounded backlog), and the
    gateway reads the clock *through the scheduler* — ``FaultInjector``
    rebinds ``scheduler.clock``, so a statically captured engine clock
    would silently keep pre-jump time and split the accounting.
    """

    def test_gateway_tracks_fault_injected_clock(self, repo):
        from repro.serve.faultinject import (
            FaultInjector,
            FaultSchedule,
            FaultSpec,
        )

        gateway, clock = build_gateway(repo)
        scheduler = gateway.engine.lm_scheduler
        schedule = FaultSchedule(
            (FaultSpec("clock_jump", phase="round", at_count=1, jump_s=3600.0),)
        )
        FaultInjector(schedule).attach(scheduler)
        # The gateway must read time through the scheduler's (re-bound)
        # clock, not a reference captured at construction.
        assert gateway.clock() == scheduler.clock()
        # Drain the burst (2), confirm the limiter bites pre-jump.
        assert gateway.submit("key-interactive", lm_request(seed=1)).status == 202
        assert gateway.submit("key-interactive", lm_request(seed=2)).status == 202
        assert gateway.submit("key-interactive", lm_request(seed=3)).status == 429
        # Drain the accepted work; the first decode round fires the jump.
        gateway.engine.run_until_idle()
        assert scheduler.clock() == clock() + 3600.0
        assert gateway.clock() == scheduler.clock()
        # One hour "passed" at 2 rps — but the refill clamps to burst, so
        # exactly the burst is admitted and the limiter still bites.
        assert gateway.submit("key-interactive", lm_request(seed=4)).status == 202
        assert gateway.submit("key-interactive", lm_request(seed=5)).status == 202
        sixth = gateway.submit("key-interactive", lm_request(seed=6))
        assert sixth.status == 429
        assert sixth.error.code == "RateLimitedError"

    def test_token_bucket_clamps_jump_and_survives_backwards_clock(self):
        from repro.serve.gateway import _TokenBucket

        bucket = _TokenBucket(rate=2.0, burst=2)
        assert bucket.try_take(0.0) and bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # A huge forward jump mints at most one burst of tokens.
        assert bucket.try_take(1e6) and bucket.try_take(1e6)
        assert not bucket.try_take(1e6)
        # A backwards step re-anchors without refilling (elapsed time is
        # unknowable) and never raises or goes negative.
        assert not bucket.try_take(1e6 - 50.0)
        # Time moving forward from the re-anchor refills normally.
        assert bucket.try_take(1e6 - 49.0)
