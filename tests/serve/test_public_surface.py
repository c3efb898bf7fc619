"""The ``repro.serve`` package surface: every exported name resolves.

Names with no user outside the package are not exported; each stays
importable from its own module.
"""

import importlib

import pytest

import repro.serve

MODULE_ONLY = {
    "Gauge": "repro.serve.telemetry",
    "Histogram": "repro.serve.telemetry",
    "InferenceResult": "repro.serve.requests",
    "PackedModel": "repro.serve.repository",
    "PageHandle": "repro.serve.kvcache",
    "PhaseRow": "repro.serve.telemetry",
    "RepositoryStats": "repro.serve.repository",
    "RetryableServingError": "repro.serve.errors",
    "SampledToken": "repro.serve.sampling",
    "ServingSummary": "repro.serve.stats",
}


def test_every_exported_name_resolves():
    exported = repro.serve.__all__
    assert len(exported) == len(set(exported)) == 67
    missing = [name for name in exported if not hasattr(repro.serve, name)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_name_is_not_exported(name):
    assert name not in repro.serve.__all__
    assert hasattr(importlib.import_module(MODULE_ONLY[name]), name)
