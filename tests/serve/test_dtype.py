"""The served model computes in float32; the paper path stays in float64.

The repository casts every entry it packs to float32, and nothing between
the token ids and the sampled logprobs may promote back to float64: a stray
float64 scalar, mask or decoded page would silently double the bytes every
GEMM, attend and KV row moves.  One mixed workload drives every serving
path that carries activations (chunked prefill, plain decode, speculative
draft and verify, and a cascade attend over a shared prefix block) and
checks the dtype of each hidden state, K/V row buffer, shared block,
decoded page, speculative-head logit and log-prob array it produces.  The same workload on the
entry cast back to float64 computes in float64, with the pool's byte
gauges balanced either way; an unserved zoo model computes in float64.
"""

import numpy as np
import pytest

from repro.models.zoo import CausalLM, build_causal_lm
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import TransformerDecoder, TransformerDecoderLayer
from repro.serve import (
    ContinuousBatchingScheduler,
    InferenceRequest,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    SpeculativeConfig,
    SpeculativeDecoder,
    WorkloadFamily,
)
from repro.serve.faultinject import check_refcounts
from repro.serve.kvcache import PagePool, cache_for_model
from repro.serve.spec import _DraftPair

MODEL = "gpt2-xl"
VOCAB = 96
PAGE_SIZE = 4
CHUNK = 8
CACHE = KVCacheConfig(bits=4, page_size=PAGE_SIZE)
SPEC = SpeculativeConfig(
    num_speculative_tokens=2,
    calibration_sequences=6,
    calibration_tokens=12,
    calibration_prompt_len=4,
)


class DtypeLog:
    """Dtypes seen at the serving stack's activation boundaries, by path."""

    def __init__(self):
        self.dtypes = {}
        self.prefill_widths = []

    def add(self, kind, *arrays):
        self.dtypes.setdefault(kind, set()).update(np.dtype(a.dtype) for a in arrays)


def record(monkeypatch, log):
    """Wrap the forward entry points so every call logs its arrays' dtypes."""
    backbone_forward = TransformerDecoder.forward_incremental
    layer_forward = TransformerDecoderLayer.forward_incremental
    attend = MultiHeadAttention._attend
    log_probs = CausalLM.log_probs_incremental
    decoded_many = PagePool.decoded_many
    draft_hidden = SpeculativeDecoder._draft_hidden
    head_logits = _DraftPair.head_logits
    softmax = F.softmax

    def backbone(self, token_ids, caches, batched_rounds=None, tracer=None):
        hidden = backbone_forward(self, token_ids, caches, batched_rounds, tracer)
        t_new = np.atleast_2d(token_ids).shape[1]
        if batched_rounds:
            kind = "verify"
        elif t_new == 1:
            kind = "decode"
        else:
            kind = "prefill"
            log.prefill_widths.append(t_new)
        log.add(kind, hidden)
        return hidden

    def layer(self, x, layer_caches, batched_rounds=None, tracer=None):
        hidden = layer_forward(self, x, layer_caches, batched_rounds, tracer)
        log.add("hidden", x, hidden)
        return hidden

    def attend_(self, q, kvs, prefixes=None):
        out = attend(self, q, kvs, prefixes)
        log.add("attend", q, out, *(a for kv in kvs for a in kv))
        if prefixes is not None:
            shared = [prefix for prefix in prefixes if prefix is not None]
            log.add("cascade", *(a for k, v, _ in shared for a in (k, v)))
        return out

    def softmax_(x, axis=-1):
        # Attention scores: a float64 scale or mask would promote them here,
        # though the attend writes its output back into a query-dtype buffer.
        out = softmax(x, axis)
        log.add("scores", x, out)
        return out

    def log_probs_(self, *args, **kwargs):
        out = log_probs(self, *args, **kwargs)
        log.add("log_probs", out)
        return out

    def decoded_many_(self, handles, codec):
        pages = decoded_many(self, handles, codec)
        log.add("decoded_pages", *pages)
        return pages

    def draft_hidden_(self, backbone, tokens, caches):
        hidden = draft_hidden(self, backbone, tokens, caches)
        log.add("draft", hidden)
        return hidden

    def head_logits_(self, base, chain):
        out = head_logits(self, base, chain)
        log.add("head_logits", base, out)
        return out

    monkeypatch.setattr(TransformerDecoder, "forward_incremental", backbone)
    monkeypatch.setattr(TransformerDecoderLayer, "forward_incremental", layer)
    monkeypatch.setattr(MultiHeadAttention, "_attend", attend_)
    monkeypatch.setattr(CausalLM, "log_probs_incremental", log_probs_)
    monkeypatch.setattr(PagePool, "decoded_many", decoded_many_)
    monkeypatch.setattr(SpeculativeDecoder, "_draft_hidden", draft_hidden_)
    monkeypatch.setattr(_DraftPair, "head_logits", head_logits_)
    monkeypatch.setattr(F, "softmax", softmax_)


def log_cache_rows(scheduler, log):
    """Log every live slot's K/V row buffers and every live shared block."""
    for slot in scheduler._slots:
        if slot is None:
            continue
        for index in range(slot.cache.num_layers):
            layer = slot.cache.layer(index)
            log.add("kv_rows", layer._k, layer._v)
    for block in scheduler.page_pool._blocks.values():
        log.add("shared_block", block.k, block.v)


def requests_for_shared_document(seed=0):
    """One reader indexes a 20-token document; three more then read it at
    once (one shared block, cascade attended) with longer questions, so
    their suffix prefills run in chunks."""
    rng = np.random.default_rng(seed)
    document = rng.integers(0, VOCAB, size=5 * PAGE_SIZE)
    first = [np.concatenate([document, rng.integers(0, VOCAB, size=3)])]
    wave = [
        np.concatenate([document, rng.integers(0, VOCAB, size=int(n))])
        for n in (11, 13, 9)
    ]
    return [
        [
            InferenceRequest(
                MODEL, WorkloadFamily.LM, prompt,
                sampling=SamplingParams(max_new_tokens=10),
            )
            for prompt in prompts
        ]
        for prompts in (first, wave)
    ]


def serve_mixed_workload(repository, speculative, log):
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=3,
        cache_config=CACHE,
        speculative=speculative,
        prefill_chunk_tokens=CHUNK,
    )
    results = []
    for wave in requests_for_shared_document():
        for request in wave:
            scheduler.submit(request)
        while len(scheduler):
            results.extend(scheduler.step())
            log_cache_rows(scheduler, log)
            check_refcounts(scheduler)
    pool = scheduler.page_pool
    assert pool.num_blocks == 0 and pool.decoded_cache_bytes == 0
    assert len(results) == 4
    return results


@pytest.fixture(scope="module")
def deployment():
    repository = ModelRepository(bits=4, seed=0)
    repository.get(MODEL, WorkloadFamily.LM)
    speculative = SpeculativeDecoder(repository, SPEC, target_cache_config=CACHE)
    speculative.warm(MODEL)
    return repository, speculative


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["served", "cast-back"])
def test_mixed_workload_computes_in_the_entry_dtype(deployment, monkeypatch, dtype):
    repository, speculative = deployment
    entries = repository.cached_entries()
    assert {p.data.dtype for e in entries for p in e.model.parameters()} == {
        np.dtype(np.float32)
    }
    try:
        for entry in entries:
            entry.model.astype(dtype)
        log = DtypeLog()
        record(monkeypatch, log)
        serve_mixed_workload(repository, speculative, log)
    finally:
        for entry in entries:  # float32 -> float64 -> float32 is exact
            entry.model.astype(np.float32)
    paths = (
        "prefill", "decode", "draft", "verify", "hidden", "attend", "scores",
        "cascade", "log_probs", "decoded_pages", "kv_rows", "shared_block",
        "head_logits",
    )
    assert set(log.dtypes) == set(paths), "a serving path was not exercised"
    assert max(log.prefill_widths) == CHUNK  # 23-33-token prompts, chunked
    for kind in paths:
        assert log.dtypes[kind] == {np.dtype(dtype)}, kind


def test_unserved_zoo_model_computes_in_float64():
    model = build_causal_lm(MODEL, seed=0)
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
    prompt = np.random.default_rng(1).integers(0, VOCAB, size=(1, 9))
    assert model.log_probs(prompt).dtype == np.float64
    cache = cache_for_model(model, CACHE)
    assert model.log_probs_incremental(prompt, [cache]).dtype == np.float64
    layer = cache.layer(0)
    assert layer._k.dtype == layer._v.dtype == np.float64
    assert {handle.dtype for handle in layer._sealed_k} == {np.dtype(np.float64)}
