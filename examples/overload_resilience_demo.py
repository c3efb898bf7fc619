"""Overload-resilience demo: admission, deadlines, preemption, chaos.

Run with ``python examples/overload_resilience_demo.py``.  Four short acts
show the serving layer refusing to melt under pressure:

1. **bounded admission** — a depth-bounded queue sheds excess load with a
   typed, retryable :class:`QueueFullError` instead of queueing unboundedly;
2. **deadlines** — a request whose end-to-end deadline expires mid-decode
   terminates with ``finish_reason="deadline"``, partial output delivered,
   its slot and KV pages freed exactly like a cancel;
3. **priority preemption** — an interactive request evicts a running batch
   request; the victim's sealed OVP pages park under the prefix index and
   re-attach copy-on-write on resume, so the final output is token-identical
   to an uninterrupted run;
4. **fault injection** — a seeded :class:`FaultInjector` throws an error
   into a decode round; the scheduler aborts the in-flight slots, balances
   every page refcount, and keeps serving the next request.
"""

import numpy as np

from repro.serve import (
    AdmissionPolicy,
    ContinuousBatchingScheduler,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    InferenceRequest,
    InjectedFault,
    KVCacheConfig,
    ModelRepository,
    QueueFullError,
    SamplingParams,
    ServingStats,
    WorkloadFamily,
)

MODEL = "gpt2-xl"
VOCAB = 96
CACHE = KVCacheConfig(bits=4, page_size=4, prefix_sharing=True)


def request(prompt, max_new_tokens=4, slo_class="default", deadline_s=None):
    return InferenceRequest(
        MODEL,
        WorkloadFamily.LM,
        np.asarray(prompt) % VOCAB,
        sampling=SamplingParams(max_new_tokens=max_new_tokens, seed=0),
        slo_class=slo_class,
        deadline_s=deadline_s,
    )


def drain(scheduler, limit=100):
    results = []
    for _ in range(limit):
        if not len(scheduler):
            return results
        results.extend(scheduler.step())
    raise RuntimeError("scheduler did not drain")


def act_bounded_admission(repository):
    print("== act 1: bounded admission sheds excess load ==")
    stats = ServingStats()
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=1,
        cache_config=CACHE,
        stats=stats,
        admission=AdmissionPolicy(max_queue_depth=2),
    )
    admitted, shed = 0, 0
    for i in range(6):
        try:
            scheduler.submit(request(np.arange(5) + i))
            admitted += 1
        except QueueFullError:
            shed += 1
    print(f"  offered 6 requests to a depth-2 queue: "
          f"{admitted} admitted, {shed} shed (typed, retryable)")
    done = drain(scheduler)
    print(f"  queue drained: {len(done)} finished; "
          f"rejected counter = {scheduler.rejected}")
    counter = stats.registry.get("serve_requests_rejected_total")
    print(f"  serve_requests_rejected_total{{queue_full,default}} = "
          f"{counter.value_sum(reason='queue_full', slo_class='default')}")
    assert shed == 4 and len(done) == 2


def act_deadlines(repository):
    print("== act 2: deadlines fire mid-decode, partial output kept ==")
    now = [0.0]
    stats = ServingStats()
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=1,
        cache_config=CACHE,
        clock=lambda: now[0],
        stats=stats,
    )
    hurried = request(np.arange(6), max_new_tokens=32, deadline_s=10.0)
    scheduler.submit(hurried)
    scheduler.step()  # prefill + first tokens, well inside the deadline
    now[0] = 11.0     # the clock strides past the end-to-end deadline
    results = drain(scheduler)
    out = results[0].output
    print(f"  finish_reason={out.finish_reason!r} after "
          f"{len(out.token_ids)} of 32 tokens; slot and pages freed")
    counter = stats.registry.get("serve_deadline_misses_total")
    print(f"  serve_deadline_misses_total{{default}} = "
          f"{counter.value(slo_class='default')}")
    assert out.finish_reason == "deadline" and 0 < len(out.token_ids) < 32


def act_preemption(repository):
    print("== act 3: preempt, park sealed pages, resume token-identical ==")
    baseline_scheduler = ContinuousBatchingScheduler(
        repository, num_slots=1, cache_config=CACHE
    )
    victim_prompt = np.arange(9)
    baseline_scheduler.submit(request(victim_prompt, max_new_tokens=8,
                                      slo_class="batch"))
    baseline = drain(baseline_scheduler)[0]

    stats = ServingStats()
    scheduler = ContinuousBatchingScheduler(
        repository,
        num_slots=1,
        cache_config=CACHE,
        stats=stats,
        admission=AdmissionPolicy(
            class_priority={"interactive": 10, "batch": 0}, preempt=True
        ),
    )
    victim = request(victim_prompt, max_new_tokens=8, slo_class="batch")
    scheduler.submit(victim)
    for _ in range(3):
        scheduler.step()  # victim decodes a few tokens...
    scheduler.submit(request(np.arange(5) + 40, max_new_tokens=2,
                             slo_class="interactive"))
    results = {r.request_id: r for r in drain(scheduler)}
    resumed = results[victim.request_id].output
    identical = list(resumed.token_ids) == list(baseline.output.token_ids)
    print(f"  preemptions = {scheduler.preempted}; victim resumed with "
          f"prefix_shared_tokens = {resumed.kv_cache['prefix_shared_tokens']}, "
          f"shared_pages = {resumed.kv_cache['shared_pages']}")
    print(f"  resumed output token-identical to uninterrupted run: {identical}")
    assert scheduler.preempted == 1 and identical


def act_fault_injection(repository):
    print("== act 4: seeded fault injection, abort, keep serving ==")
    scheduler = ContinuousBatchingScheduler(
        repository, num_slots=2, cache_config=CACHE
    )
    schedule = FaultSchedule((
        FaultSpec("phase_error", phase="round", at_count=2),
    ))
    injector = FaultInjector(schedule).attach(scheduler)
    doomed = request(np.arange(7), max_new_tokens=6)
    scheduler.submit(doomed)
    while len(scheduler):
        try:
            scheduler.step()
        except InjectedFault:
            pass  # the failed round ended its in-flight requests in error
    failures = dict(scheduler.take_failures())
    aborted = [rid for rid, exc in failures.items() if isinstance(exc, InjectedFault)]
    print(f"  round 2 raised {type(list(failures.values())[0]).__name__}; "
          f"aborted {len(aborted)} in-flight request(s)")
    print(f"  pool entries after abort: {scheduler.page_pool.num_entries} "
          f"refcounts balanced; injector fired {len(injector.fired)} fault(s)")
    probe = request(np.arange(4), max_new_tokens=2)
    scheduler.submit(probe)
    results = drain(scheduler)
    print(f"  probe request after the fault: "
          f"finish_reason={results[0].output.finish_reason!r} — still serving")
    assert doomed.request_id in failures
    assert results[0].request_id == probe.request_id


def main():
    repository = ModelRepository(bits=4, seed=0)
    repository.get(MODEL, WorkloadFamily.LM)
    act_bounded_admission(repository)
    act_deadlines(repository)
    act_preemption(repository)
    act_fault_injection(repository)
    print("overload resilience demo: OK")


if __name__ == "__main__":
    main()
