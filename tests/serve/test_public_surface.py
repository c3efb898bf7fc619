"""The ``repro.serve`` package surface: every exported name resolves.

Names with no user outside the package are not exported; each stays
importable from its own module.
"""

import importlib

import pytest

import repro.serve

MODULE_ONLY = {
    "AuthenticationError": "repro.serve.errors",
    "BatchRecord": "repro.serve.stats",
    "BurnRatePolicy": "repro.serve.health",
    "Counter": "repro.serve.telemetry",
    "DecodeRoundRecord": "repro.serve.stats",
    "Gauge": "repro.serve.telemetry",
    "Histogram": "repro.serve.telemetry",
    "InferenceEngine": "repro.serve.engine",
    "InferenceResult": "repro.serve.requests",
    "MicroBatcher": "repro.serve.batcher",
    "PackedModel": "repro.serve.repository",
    "PageHandle": "repro.serve.kvcache",
    "PhaseRow": "repro.serve.telemetry",
    "QueuedRequest": "repro.serve.batcher",
    "QuotaExceededError": "repro.serve.errors",
    "RateLimitedError": "repro.serve.errors",
    "RepositoryStats": "repro.serve.repository",
    "RetryableServingError": "repro.serve.errors",
    "SampledToken": "repro.serve.sampling",
    "ServingSummary": "repro.serve.stats",
    "TraceEvent": "repro.serve.loadgen",
    "exponential_buckets": "repro.serve.telemetry",
    "is_retryable": "repro.serve.errors",
    "load_trace": "repro.serve.loadgen",
    "save_trace": "repro.serve.loadgen",
    "top_k_candidates": "repro.serve.sampling",
    "unified_event_log": "repro.serve.health",
    "validate_exposition": "repro.serve.telemetry",
}


def test_every_exported_name_resolves():
    exported = repro.serve.__all__
    assert len(exported) == len(set(exported)) == 47
    missing = [name for name in exported if not hasattr(repro.serve, name)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_name_is_not_exported(name):
    assert name not in repro.serve.__all__
    assert hasattr(importlib.import_module(MODULE_ONLY[name]), name)
