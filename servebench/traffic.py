"""Seeded request streams for the serving benchmark's three workloads.

Every input is generated before the clock starts.  A workload's *shape* —
arrival gaps, prompt lengths, which requests sample, which document each
question reads — is a stratified design drawn from a fixed seed: the values
are evenly spaced quantiles of the stated distributions in a fixed shuffled
order.  ``--seed`` draws the *content*: every token id and every sampling
seed.  Two seeds therefore offer the same work in the same order over
different tokens, and run-to-run spread measures the serving stack, not the
luck of which requests happened to arrive together.

The number of requests scales with ``--seconds``, at a per-workload rate
chosen so one run measures about that long on a 2-CPU machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: ``gpt2-xl-scaled`` vocabulary and the generation budget of every request.
VOCAB = 96
NEW_TOKENS = 16

#: chat: open-loop Poisson arrivals.  At 2 req/s the engine is busy about a
#: third of the window on a 2-CPU machine; at 4 req/s, half-way to capacity,
#: per-run latency means spread twice as widely between repeats.
CHAT_RATE = 2.0
CHAT_PROMPT = (16, 96)
#: long_context / shared_doc: closed loops of this many clients.
CLIENTS = 8
LONG_REQUESTS_PER_S = 1.2
LONG_PROMPT = (256, 512)
SHARED_REQUESTS_PER_S = 1.6
#: shared_doc documents, most popular first (Zipf popularity 1, 1/2, 1/3).
DOC_LENGTHS = (512, 384, 640)
QUESTION = (8, 32)


@dataclass(frozen=True)
class Job:
    """One request the load generator sends."""

    prompt: np.ndarray
    due: float = 0.0              # open loop: seconds after the window opens
    temperature: float = 0.0      # 0 decodes greedily
    top_p: float = 1.0
    seed: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: List[Job]
    clients: Optional[int]        # None: open loop, jobs carry due times
    speculative: bool


#: Seed of every workload's shape; ``--seed`` only draws content.
SHAPE_SEED = 20230617


def _generators(seed: int, workload: int):
    """``(shape, content)`` generators of one workload."""
    return (
        np.random.default_rng([SHAPE_SEED, workload]),
        np.random.default_rng([seed, workload]),
    )


def _stratified(shape: np.random.Generator, low: int, high: int, count: int) -> np.ndarray:
    """``count`` evenly spaced integers in ``[low, high]``, shuffled."""
    return shape.permutation(np.rint(np.linspace(low, high, count)).astype(np.int64))


def _tokens(content: np.random.Generator, length: int) -> np.ndarray:
    return content.integers(0, VOCAB, size=int(length), dtype=np.int64)


def _count(rate: float, seconds: float) -> int:
    return max(1, int(round(rate * seconds)))


def chat(seed: int, seconds: float) -> Workload:
    """Short prompts at a fixed Poisson rate; one request in four is sampled."""
    shape, content = _generators(seed, 0)
    count = _count(CHAT_RATE, seconds)
    # Exponential gaps taken at their ``count`` quantiles and shuffled: the
    # marginal is Poisson's and the offered span is exactly count / rate.
    quantiles = (np.arange(count) + 0.5) / count
    gaps = shape.permutation(-np.log1p(-quantiles) / CHAT_RATE)
    dues = np.concatenate([[0.0], np.cumsum(gaps[1:])])
    lengths = _stratified(shape, *CHAT_PROMPT, count)
    sampled = set(shape.choice(count, size=count // 4, replace=False).tolist())
    jobs = []
    for index in range(count):
        prompt = _tokens(content, lengths[index])
        if index in sampled:
            jobs.append(
                Job(
                    prompt,
                    due=float(dues[index]),
                    temperature=0.8,
                    top_p=0.9,
                    seed=int(content.integers(1 << 31)),
                )
            )
        else:
            jobs.append(Job(prompt, due=float(dues[index])))
    return Workload("chat", jobs, clients=None, speculative=True)


def long_context(seed: int, seconds: float) -> Workload:
    """Unique long prompts, greedy: nothing shared, KV working set > LRU."""
    shape, content = _generators(seed, 1)
    lengths = _stratified(shape, *LONG_PROMPT, _count(LONG_REQUESTS_PER_S, seconds))
    jobs = [Job(_tokens(content, length)) for length in lengths]
    return Workload("long_context", jobs, clients=CLIENTS, speculative=False)


def shared_doc(seed: int, seconds: float) -> Workload:
    """Questions about three shared documents with Zipf popularity, greedy."""
    shape, content = _generators(seed, 2)
    count = _count(SHARED_REQUESTS_PER_S, seconds)
    docs = [_tokens(content, length) for length in DOC_LENGTHS]
    weights = 1.0 / np.arange(1, len(docs) + 1)
    shares = count * weights / weights.sum()
    per_doc = np.floor(shares).astype(np.int64)
    # Largest remainders take the requests the floors left over.
    for doc in np.argsort(per_doc - shares)[: count - int(per_doc.sum())]:
        per_doc[doc] += 1
    picks = shape.permutation(np.repeat(np.arange(len(docs)), per_doc))
    questions = _stratified(shape, *QUESTION, count)
    jobs = [
        Job(np.concatenate([docs[doc], _tokens(content, length)]))
        for doc, length in zip(picks, questions)
    ]
    return Workload("shared_doc", jobs, clients=CLIENTS, speculative=False)


WORKLOADS = {"chat": chat, "long_context": long_context, "shared_doc": shared_doc}
