"""Serving features in combination against the simplest serving path.

One derandomized property test serves a shared-document request mix with
prefix sharing on, under a drawn feature vector: prefill chunk size,
speculation on or off, one preemption, an in-flight follower (a first-wave
request on a document another first-wave request is still prefilling), and
4-bit, 8-bit or unquantized pages.  Every token stream and finish reason must equal the one-slot
oracle's (no sharing, no chunking, no speculation, each request served
alone), and every logprob must agree within ``LOGPROB_BOUND``.  Both sides
serve the same float32 repository entry, but not the same float32
arithmetic: attention over a shared prefix block splits the softmax, a
one-row GEMM takes another BLAS kernel than a batched one, and a softmax
sums rows of other lengths, so the logprobs agree to float32 round-off,
not bitwise.

Known defect, not covered by the bound: packed pages seal from K/V rows
that carry this round-off.  An element within round-off of an OVP rounding
boundary then seals one grid step apart on the two sides, and the changed
rows push later pages across further boundaries.  With 8-bit pages (grid
step 3σ/127) this happens often enough to show: 6 of 200 random 8-bit
draws exceed the bound (max 9.4e-3), and some draws move a logprob by 0.1
or flip a greedy token, e.g. ``chunk=4, speculative=True, bits=8,
preempt_round=3, seed=58755``.  4-bit and unquantized draws stayed within
the bound.  None of the ten tier-1 draws hits the defect; the widened run
does.  Sealing from rows that are bitwise identical across serving paths
would fix it.

The preempted request's logprobs are bounded only up to its eviction when
its pages are packed.  Its resume re-prefills the rows of its last, partly
generated page in one pass, so when that page fills during the re-prefill
its tokens attend the page's quantized rows where the uninterrupted run
attended them in full precision.  The resumed logprobs then drift at the
quantization scale; with unquantized pages they stay within the bound.
The drift can also flip the victim's later tokens, which the token check
catches (e.g. ``chunk=None, speculative=False, bits=4, preempt_round=3,
seed=0``, in float64 too); no derandomized draw, tier-1 or widened, does.

The example count defaults to 10; the ``COMBINATION_EXAMPLES`` environment
variable widens it (CI's chaos job does).  A widened run also replays
``DEFECT_DRAWS`` first, so it keeps failing on the 8-bit defect until the
defect is fixed, whichever draws the derandomized search makes.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serve import (
    AdmissionPolicy,
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

MODEL = "gpt2-xl"
VOCAB = 96
PAGE_SIZE = 4
NUM_SLOTS = 3
#: Max |Δ logprob| against the oracle.  Measured in float32 over random
#: draws: 7.3e-5 over 150 unquantized and 5.3e-4 over 200 4-bit draws.
LOGPROB_BOUND = 1e-3
#: Page widths drawn: 4- and 8-bit OVP, and ``None`` for unquantized pages.
PAGE_BITS = (4, 8, None)
EXAMPLES = int(os.environ.get("COMBINATION_EXAMPLES", "10"))
#: Draws that hit the 8-bit defect described above.
DEFECT_DRAWS = (
    dict(chunk=4, speculative=False, bits=8, preempt_round=1, follower=False, seed=24181),
    dict(chunk=4, speculative=True, bits=8, preempt_round=3, follower=False, seed=58755),
)


def replay_defect_draws_when_widened(test):
    """Add ``DEFECT_DRAWS`` as explicit examples, in widened runs only."""
    if EXAMPLES > 10:
        for draw in DEFECT_DRAWS:
            test = example(**draw)(test)
    return test

#: Cheap calibration: the heads only need to propose, not to be accurate.
SPEC = SpeculativeConfig(
    num_speculative_tokens=2,
    calibration_sequences=6,
    calibration_tokens=12,
    calibration_prompt_len=4,
)


@pytest.fixture(scope="module")
def repository():
    repo = ModelRepository(bits=4, seed=0)
    repo.get(MODEL, WorkloadFamily.LM)
    return repo


@pytest.fixture(scope="module")
def decoders(repository):
    """One calibrated speculative decoder per page width, built on demand."""
    built = {}

    def get(bits):
        if bits not in built:
            built[bits] = SpeculativeDecoder(
                repository, SPEC, target_cache_config=cache_config(bits)
            )
            built[bits].warm(MODEL)
        return built[bits]

    return get


def cache_config(bits, prefix_sharing=True):
    """Pages of ``bits``-wide OVP, or unquantized pages for ``bits=None``."""
    return KVCacheConfig(
        bits=bits or 4,
        page_size=PAGE_SIZE,
        quantize=bits is not None,
        prefix_sharing=prefix_sharing,
    )


#: Document of each request: a first wave reads each document once, the
#: second wave holds document 0 twice and document 1 once, and the last
#: request (the interactive one that preempts) draws its document.
WAVES = ((0, 1), (0, 0, 1))


def request_mix(seed, follower=False):
    """``(prompt, max_new_tokens)`` per request, in submission order.

    With ``follower``, the first wave ends with one more request on
    document 0, drawn after the others so the rest of the mix is unchanged:
    it arrives while the wave's first request is still prefilling the
    document, which nobody has indexed yet.
    """
    rng = np.random.default_rng(seed)
    documents = [rng.integers(0, VOCAB, size=n) for n in rng.integers(17, 27, size=2)]
    picks = [doc for wave in WAVES for doc in wave] + [int(rng.integers(2))]
    if follower:
        picks.append(0)
    mix = []
    for doc in picks:
        question = rng.integers(0, VOCAB, size=int(rng.integers(2, 6)))
        mix.append((np.concatenate([documents[doc], question]), int(rng.integers(8, 13))))
    if follower:
        mix.insert(len(WAVES[0]), mix.pop())
    return mix


def make_requests(mix):
    return [
        InferenceRequest(
            MODEL,
            WorkloadFamily.LM,
            prompt,
            sampling=SamplingParams(max_new_tokens=max_new_tokens),
            slo_class="interactive" if i == len(mix) - 1 else "batch",
        )
        for i, (prompt, max_new_tokens) in enumerate(mix)
    ]


def one_slot_oracle(repository, mix, bits):
    """Outputs of each request served alone on the simplest path."""
    scheduler = ContinuousBatchingScheduler(
        repository, num_slots=1, cache_config=cache_config(bits, prefix_sharing=False)
    )
    ids = [scheduler.submit(request) for request in make_requests(mix)]
    outputs = {result.request_id: result.output for result in scheduler.run_until_idle()}
    return [outputs[request_id] for request_id in ids]


def served_with_features(
    repository, mix, bits, chunk, speculative, preempt_round, follower
):
    """Outputs with every drawn feature on.

    The first wave indexes both documents (with ``follower``, its last
    request waits for the first to seal document 0); the second wave
    arrives at once, so its holders of document 0 read one shared block in
    the same rounds.
    The interactive request arrives ``preempt_round`` rounds later, evicts
    a batch slot, and the victim resumes by re-attaching its own pages.
    Returns the outputs and ``(victim index, tokens emitted before its
    eviction)``.
    """
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=NUM_SLOTS,
        cache_config=cache_config(bits),
        speculative=speculative,
        admission=AdmissionPolicy(
            class_priority={"interactive": 10, "batch": 0}, preempt=True
        ),
        prefill_chunk_tokens=chunk,
    )
    requests = make_requests(mix)
    first = len(WAVES[0]) + follower
    outputs = {}
    for request in requests[:first]:
        scheduler.submit(request)
    outputs.update((r.request_id, r.output) for r in scheduler.run_until_idle())
    for request in requests[first:-1]:
        scheduler.submit(request)
    victim = None
    for round_index in range(200):
        if round_index == preempt_round:
            scheduler.submit(requests[-1])
        elif round_index > preempt_round and not len(scheduler):
            break
        emitted = {
            slot.request.request_id: len(slot.generated)
            for slot in scheduler._slots
            if slot is not None
        }
        preempted = scheduler.preempted
        for result in scheduler.step():
            outputs[result.request_id] = result.output
        if scheduler.preempted > preempted:
            active = {slot.request.request_id for slot in scheduler._slots if slot}
            [victim] = [rid for rid in emitted if rid not in active and rid not in outputs]
            victim = ([r.request_id for r in requests].index(victim), emitted[victim])
        check_refcounts(scheduler)
    assert scheduler.preempted == 1
    pool = scheduler.page_pool
    assert pool.num_blocks == 0 and pool.decoded_cache_bytes == 0
    return [outputs[request.request_id] for request in requests], victim


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(
    chunk=st.sampled_from([None, PAGE_SIZE, 2 * PAGE_SIZE]),
    speculative=st.booleans(),
    bits=st.sampled_from(PAGE_BITS),
    preempt_round=st.integers(min_value=1, max_value=3),
    follower=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@replay_defect_draws_when_widened
def test_feature_mix_matches_one_slot_oracle(
    repository, decoders, chunk, speculative, bits, preempt_round, follower, seed
):
    mix = request_mix(seed, follower)
    want = one_slot_oracle(repository, mix, bits)
    got, (victim, before_eviction) = served_with_features(
        repository,
        mix,
        bits,
        chunk,
        decoders(bits) if speculative else None,
        preempt_round,
        follower,
    )
    if follower:
        # It attached the pages its leader sealed instead of prefilling them.
        assert got[len(WAVES[0])].kv_cache["prefix_shared_tokens"] >= PAGE_SIZE
    for index, (ours, oracle) in enumerate(zip(got, want)):
        assert list(ours.token_ids) == list(oracle.token_ids)
        assert ours.finish_reason == oracle.finish_reason
        packed_victim = index == victim and bits is not None
        bounded = before_eviction if packed_victim else len(oracle.logprobs)
        delta = np.abs(np.asarray(ours.logprobs) - np.asarray(oracle.logprobs))
        assert delta[:bounded].max(initial=0.0) <= LOGPROB_BOUND
