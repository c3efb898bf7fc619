"""Trace-driven load generation: determinism, replay, multi-turn, reports."""

import json

import pytest

from repro.serve.engine import ServingEngine
from repro.serve.gateway import Gateway, GatewayConfig, TenantConfig
from repro.serve.kvcache import KVCacheConfig
from repro.serve.loadgen import (
    LoadRunner,
    TenantLoad,
    TraceConfig,
    TraceEvent,
    VirtualClock,
    generate_trace,
    load_trace,
    save_trace,
)
from repro.serve.repository import ModelRepository
from repro.serve.requests import ServingError, WorkloadFamily


@pytest.fixture(scope="module")
def repo():
    repository = ModelRepository(bits=4, seed=0)
    repository.get("gpt2-xl", WorkloadFamily.LM)
    return repository


def trace_config(seed=7, rounds=14):
    return TraceConfig(
        tenants=(
            TenantLoad(
                name="interactive",
                arrivals_per_round=0.6,
                burst_rounds=3,
                idle_rounds=3,
                prompt_tokens=(6, 14),
                max_new_tokens=3,
                turns_range=(1, 3),
            ),
            TenantLoad(
                name="batch",
                arrivals_per_round=0.3,
                prompt_tokens=(20, 40),
                max_new_tokens=4,
            ),
        ),
        rounds=rounds,
        seed=seed,
    )


def build_gateway(repo, clock):
    config = GatewayConfig(tenants=(
        TenantConfig(
            name="interactive",
            api_key="key-i",
            priority=10,
            requests_per_second=60.0,
            burst=6,
            max_concurrent=8,
            ttft_target_seconds=0.5,
            latency_target_seconds=2.0,
        ),
        TenantConfig(name="batch", api_key="key-b", max_concurrent=4),
    ))
    engine = ServingEngine(
        repo,
        clock=clock,
        kv_cache_config=KVCacheConfig(bits=4, page_size=8, prefix_sharing=True),
        num_slots=4,
        admission=config.admission_policy(),
        health=config.health_config(),
        prefill_chunk_tokens=8,
    )
    return Gateway(engine, config)


class TestTraceGeneration:
    def test_same_config_same_trace(self):
        assert generate_trace(trace_config()) == generate_trace(trace_config())

    def test_different_seed_different_trace(self):
        assert generate_trace(trace_config(seed=1)) != generate_trace(
            trace_config(seed=2)
        )

    def test_adding_tenant_preserves_existing_streams(self):
        base = trace_config()
        extended = TraceConfig(
            tenants=base.tenants + (
                TenantLoad(name="extra", arrivals_per_round=0.5),
            ),
            rounds=base.rounds,
            seed=base.seed,
        )
        original = [e for e in generate_trace(base)]
        kept = [e for e in generate_trace(extended) if e.tenant != "extra"]
        assert kept == original

    def test_multi_turn_conversations_present(self):
        events = generate_trace(trace_config())
        followups = [e for e in events if e.turn > 0]
        assert followups, "turns_range=(1,3) should yield follow-up turns"
        by_conv = {}
        for event in events:
            by_conv.setdefault(event.conversation, []).append(event.turn)
        for turns in by_conv.values():
            assert sorted(turns) == list(range(len(turns)))

    def test_validation(self):
        with pytest.raises(ServingError):
            TraceConfig(tenants=())
        with pytest.raises(ServingError):
            TenantLoad(name="t", arrivals_per_round=0)
        with pytest.raises(ServingError):
            TenantLoad(name="t", prompt_tokens=(5, 3))
        with pytest.raises(ServingError):
            VirtualClock().advance(-1)


class TestTraceFile:
    def test_roundtrip_byte_identical(self, tmp_path):
        events = generate_trace(trace_config())
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        save_trace(events, str(path_a))
        assert load_trace(str(path_a)) == events
        save_trace(load_trace(str(path_a)), str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_event_dict_roundtrip(self):
        event = TraceEvent(
            round=3, tenant="t", conversation="t/c1", turn=1,
            new_tokens=(1, 2, 3), max_new_tokens=4, think_rounds=2,
        )
        assert TraceEvent.from_dict(event.as_dict()) == event


class TestReplayDeterminism:
    def test_report_byte_identical_across_runs(self, repo):
        reports = []
        for _ in range(2):
            clock = VirtualClock()
            gateway = build_gateway(repo, clock)
            runner = LoadRunner(gateway, clock, seconds_per_round=0.05)
            runner.run(generate_trace(trace_config()))
            reports.append(runner.report_json())
        assert reports[0] == reports[1]

    def test_report_shape_and_accounting(self, repo):
        clock = VirtualClock()
        gateway = build_gateway(repo, clock)
        runner = LoadRunner(gateway, clock, seconds_per_round=0.05)
        events = generate_trace(trace_config())
        runner.run(events)
        report = runner.report()
        assert report["rounds"] > 0
        total_submitted = sum(
            t["submitted"] for t in report["tenants"].values()
        )
        assert total_submitted == len(events)
        for name, tenant in report["tenants"].items():
            assert tenant["submitted"] == tenant["accepted"] + tenant["rejected"]
            assert tenant["accepted"] == tenant["completed"] + tenant["failed"]
            assert "slo" in tenant, name
            assert set(tenant["slo"]) == {"ttft", "latency", "availability"}

    def test_multi_turn_prompts_grow_the_stream(self, repo):
        """Turn n's prompt extends turn n-1's prompt + generated tokens —
        the shape prefix sharing accelerates."""
        clock = VirtualClock()
        gateway = build_gateway(repo, clock)
        runner = LoadRunner(gateway, clock, seconds_per_round=0.05)
        events = generate_trace(trace_config())
        multi = {e.conversation for e in events if e.turn > 0}
        assert multi
        runner.run(events)
        conv = runner._conversations[sorted(multi)[0]]
        first_turn = next(
            e for e in events
            if e.conversation == sorted(multi)[0] and e.turn == 0
        )
        assert len(conv.stream) > len(first_turn.new_tokens)
        # Prefix sharing engaged: conversations re-walked shared pages.
        assert gateway.engine.page_pool.prefix_pages_attached > 0

    def test_report_is_valid_sorted_json(self, repo):
        clock = VirtualClock()
        gateway = build_gateway(repo, clock)
        runner = LoadRunner(gateway, clock, seconds_per_round=0.05)
        runner.run(generate_trace(trace_config(rounds=6)))
        text = runner.report_json()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
