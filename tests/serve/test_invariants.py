"""Randomized invariant fuzz over the continuous scheduler's state machine.

Drives ``ContinuousBatchingScheduler`` through seeded random
admit/step/cancel/preempt/deadline/fault sequences — with and without
speculative decoding — and asserts after every step that

* PagePool refcounts balance exactly against the holders (slot caches and
  prefix-index nodes), and every live handle is accounted for;
* every active slot's sealed K/V rows hold exactly the codec decode of its
  sealed pages (each page decoded once, into rows the slot reserved at
  admission), and the pool's decoded-row gauge is back to zero once the
  scheduler drains;
* slot occupancy never exceeds capacity;
* no retired request ever re-emits a :class:`TokenChunk` (indices are
  gapless, terminals are single and final — a preempted stream pauses
  without a terminal and resumes at the same index);
* every submitted request reaches exactly one terminal outcome: a
  ``finish_reason`` (``deadline`` included) or a recorded failure.

The suite runs derandomized (fixed seeds) so tier-1 CI is reproducible.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    AdmissionPolicy,
    ContinuousBatchingScheduler,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FinishReason,
    InferenceRequest,
    InjectedFault,
    KVCacheConfig,
    ModelRepository,
    SamplingParams,
    SpeculativeConfig,
    SpeculativeDecoder,
    WorkloadFamily,
)

MODEL = "gpt2-xl"
VOCAB = 96
NUM_SLOTS = 2


@pytest.fixture(scope="module")
def repository():
    repo = ModelRepository(bits=4, seed=0)
    repo.get(MODEL, WorkloadFamily.LM)
    return repo


@pytest.fixture(scope="module")
def cache_config():
    # Tiny pages + prefix sharing on: maximum page churn per token.
    return KVCacheConfig(bits=4, page_size=4, prefix_sharing=True)


@pytest.fixture(scope="module")
def speculative(repository, cache_config):
    decoder = SpeculativeDecoder(
        repository,
        SpeculativeConfig(
            num_speculative_tokens=2,
            calibration_sequences=4,
            calibration_tokens=10,
            calibration_prompt_len=4,
        ),
        target_cache_config=cache_config,
    )
    decoder.warm(MODEL)
    return decoder


def check_refcounts(scheduler):
    """Every pool entry's refcount equals the holders we can enumerate."""
    pool = scheduler.page_pool
    held = Counter()
    for slot in scheduler._slots:
        if slot is None:
            continue
        for layer_index in range(slot.cache.num_layers):
            layer = slot.cache.layer(layer_index)
            for handle in layer._sealed_k + layer._sealed_v:
                held[id(handle)] += 1
    for node in pool._prefix_nodes.values():
        for handle in node.handles():
            held[id(handle)] += 1
    entries = {id(handle): handle for handle in pool._entries.values()}
    for key, handle in entries.items():
        assert handle.refcount == held[key], (
            f"page {handle.page_id}: refcount {handle.refcount} != "
            f"{held[key]} enumerated holders"
        )
    for key, count in held.items():
        assert key in entries and count > 0


def check_decoded_rows(scheduler):
    """Each active slot's sealed rows equal the codec decode of its pages,
    in the rows' dtype, inside the rows reserved at admission (they never
    grow or move)."""
    for slot in scheduler._slots:
        if slot is None:
            continue
        budget = slot.request.seq_len + slot.request.sampling.max_new_tokens
        for layer_index in range(slot.cache.num_layers):
            layer = slot.cache.layer(layer_index)
            size = layer.config.page_size
            assert layer._k.shape[1] == -(-budget // size) * size
            for page, (k_page, v_page) in enumerate(
                zip(layer._sealed_k, layer._sealed_v)
            ):
                rows = slice(page * size, (page + 1) * size)
                np.testing.assert_array_equal(
                    layer._k[:, rows],
                    layer.codec.decode_tensor(k_page.payload).astype(layer._k.dtype),
                )
                np.testing.assert_array_equal(
                    layer._v[:, rows],
                    layer.codec.decode_tensor(v_page.payload).astype(layer._v.dtype),
                )


class _ChunkLedger:
    """Tracks streamed chunks per request and enforces stream discipline."""

    def __init__(self):
        self.expected = {}
        self.finished = {}

    def consume(self, chunks):
        for chunk in chunks:
            rid = chunk.request_id
            assert rid not in self.finished, (
                f"request {rid} emitted a chunk after its terminal "
                f"({self.finished.get(rid)})"
            )
            index = self.expected.get(rid, 0)
            assert chunk.index == index, (
                f"request {rid}: chunk index {chunk.index}, expected {index}"
            )
            if chunk.is_token:
                self.expected[rid] = index + 1
            else:
                assert chunk.finish_reason is not None
            if chunk.finish_reason is not None:
                assert chunk.finish_reason in FinishReason.ALL
                self.finished[rid] = chunk.finish_reason


def run_sequence(repository, cache_config, speculative, plan, seeds):
    rng = np.random.default_rng(seeds)
    # This draw once chose a since-removed scheduler option; it stays so
    # every later draw, and so each seed's fuzz sequence, is unchanged.
    rng.integers(0, 2)
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=NUM_SLOTS,
        cache_config=cache_config,
        speculative=speculative,
        # Preemption armed: "gold" submissions (op 3) evict default-priority
        # actives, exercising evict/re-queue/resume under the same invariants.
        admission=AdmissionPolicy(class_priority={"gold": 5}, preempt=True),
    )
    # Fault seam armed with an empty schedule; op 5 injects one-shot faults.
    injector = FaultInjector(FaultSchedule(())).attach(scheduler)
    ledger = _ChunkLedger()
    submitted = []
    terminals = {}

    def absorb(results):
        for result in results:
            rid = result.request_id
            assert rid not in terminals, f"request {rid} completed twice"
            assert result.output.finish_reason in FinishReason.ALL
            terminals[rid] = result.output.finish_reason

    def step():
        try:
            absorb(scheduler.step())
        except InjectedFault:
            # A raised round ends its own live slots in error and the
            # scheduler keeps serving; the failed ids surface via
            # take_failures().
            assert scheduler.num_active == 0

    def make_request(slo_class="default", deadline_s=None):
        seq_len = int(rng.integers(2, 9))
        sampling = SamplingParams(
            temperature=float(rng.choice([0.0, 0.0, 0.9])),
            max_new_tokens=int(rng.integers(1, 6)),
            stop_token_ids=(
                (int(rng.integers(0, VOCAB)),) if rng.integers(0, 2) else ()
            ),
            seed=int(rng.integers(0, 1 << 16)),
        )
        request = InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=seq_len),
            sampling=sampling,
            slo_class=slo_class,
            deadline_s=deadline_s,
        )
        submitted.append(request.request_id)
        scheduler.submit(request)

    def checkpoint():
        assert scheduler.num_active <= NUM_SLOTS
        assert 0.0 <= scheduler.slot_occupancy <= 1.0
        ledger.consume(scheduler.take_chunks())
        check_refcounts(scheduler)
        check_decoded_rows(scheduler)

    for op in plan:
        if op == 0:  # submit
            make_request()
        elif op == 1:  # step
            step()
        elif op == 2 and submitted:  # cancel a known request (maybe done)
            target = submitted[int(rng.integers(0, len(submitted)))]
            result = scheduler.cancel(target)
            if result is not None:
                absorb([result])
        elif op == 3:  # preempt: gold-priority submission evicts an active
            make_request(slo_class="gold")
        elif op == 4:  # deadline-expire: already dead on the next sweep
            make_request(deadline_s=1e-9)
        elif op == 5:  # inject-fault: one-shot error entering the next round
            injector.add(
                FaultSpec(
                    "phase_error",
                    phase="round",
                    at_count=injector.occurrences("round") + 1,
                )
            )
        checkpoint()

    while len(scheduler):
        step()
        checkpoint()

    failures = dict(scheduler.take_failures())
    for rid in submitted:
        assert (rid in terminals) != (rid in failures), (
            f"request {rid} must finish exactly once "
            f"(terminal={terminals.get(rid)}, failure={failures.get(rid)})"
        )
    # Fully drained: the only live pages are the prefix index's.
    prefix_held = Counter()
    for node in scheduler.page_pool._prefix_nodes.values():
        for handle in node.handles():
            prefix_held[id(handle)] += 1
    for handle in scheduler.page_pool._entries.values():
        assert handle.refcount == prefix_held[id(handle)]
    assert scheduler.page_pool.decoded_cache_bytes == 0
    return terminals


@pytest.mark.parametrize("with_speculation", [False, True])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    plan=st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=16),
    seeds=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scheduler_invariants_hold_under_random_traffic(
    repository, cache_config, speculative, with_speculation, plan, seeds
):
    terminals = run_sequence(
        repository,
        cache_config,
        speculative if with_speculation else None,
        plan,
        seeds,
    )
    assert all(reason in FinishReason.ALL for reason in terminals.values())


def test_cancel_only_traffic_balances(repository, cache_config):
    """Submit-then-cancel without ever stepping leaves the pool empty."""
    scheduler = ContinuousBatchingScheduler(
        repository, num_slots=NUM_SLOTS, cache_config=cache_config
    )
    rng = np.random.default_rng(0)
    ids = []
    for _ in range(3):
        request = InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            rng.integers(0, VOCAB, size=5),
            sampling=SamplingParams(max_new_tokens=3),
        )
        ids.append(scheduler.submit(request))
    for rid in ids:
        result = scheduler.cancel(rid)
        assert result.output.finish_reason == FinishReason.ABORTED
    assert len(scheduler) == 0
    assert scheduler.page_pool.num_entries == 0
    check_refcounts(scheduler)
