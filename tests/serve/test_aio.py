"""asyncio front-end tests: concurrent clients coalesce into micro-batches."""

import asyncio

import numpy as np
import pytest

from repro.serve.aio import AsyncServer
from repro.serve.engine import ServingEngine
from repro.serve.repository import ModelRepository
from repro.serve.requests import InferenceRequest, ServingError, WorkloadFamily


@pytest.fixture(scope="module")
def repo():
    repo = ModelRepository(bits=4, seed=0)
    repo.get("bert-base", WorkloadFamily.CLASSIFY)
    repo.get("gpt2-xl", WorkloadFamily.LM)
    return repo


def make_requests(n, model, family, seed=0):
    rng = np.random.default_rng(seed)
    return [
        InferenceRequest(model, family, rng.integers(0, 96, size=16)) for _ in range(n)
    ]


class TestAsyncServer:
    def test_concurrent_clients_share_batches(self, repo):
        async def main():
            engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.002)
            async with AsyncServer(engine) as server:
                requests = make_requests(8, "bert-base", WorkloadFamily.CLASSIFY)
                results = await asyncio.gather(*(server.infer(r) for r in requests))
            return engine, results

        engine, results = asyncio.run(main())
        assert len(results) == 8
        # Concurrent submissions coalesced: every batch carried max size.
        assert all(r.batch_size == 4 for r in results)
        assert engine.stats.summary().batches == 2

    def test_mixed_families_resolve_to_correct_clients(self, repo):
        async def main():
            engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.002)
            async with AsyncServer(engine) as server:
                classify = make_requests(3, "bert-base", WorkloadFamily.CLASSIFY, seed=1)
                lm = make_requests(3, "gpt2-xl", WorkloadFamily.LM, seed=2)
                interleaved = [r for pair in zip(classify, lm) for r in pair]
                results = await asyncio.gather(*(server.infer(r) for r in interleaved))
            return interleaved, results

        requests, results = asyncio.run(main())
        for request, result in zip(requests, results):
            assert result.request_id == request.request_id
            assert result.family == request.family
            if request.family == WorkloadFamily.CLASSIFY:
                assert "label" in result.output
            else:
                assert result.output.next_tokens

    def test_sequential_requests_still_complete(self, repo):
        async def main():
            engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.001)
            async with AsyncServer(engine) as server:
                first = await server.infer(
                    make_requests(1, "bert-base", WorkloadFamily.CLASSIFY, seed=3)[0]
                )
                second = await server.infer(
                    make_requests(1, "bert-base", WorkloadFamily.CLASSIFY, seed=4)[0]
                )
            return first, second

        first, second = asyncio.run(main())
        assert first.batch_size == 1
        assert second.batch_size == 1

    def test_infer_before_start_rejected(self, repo):
        async def main():
            server = AsyncServer(ServingEngine(repository=repo))
            request = make_requests(1, "bert-base", WorkloadFamily.CLASSIFY)[0]
            with pytest.raises(ServingError):
                await server.infer(request)

        asyncio.run(main())

    def test_failed_request_rejects_future_without_killing_scheduler(self, repo):
        async def main():
            engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.001)
            async with AsyncServer(engine) as server:
                bad = InferenceRequest(
                    "bert-huge", WorkloadFamily.CLASSIFY, np.arange(8)
                )
                with pytest.raises(ServingError):
                    await server.infer(bad)
                # Scheduler must survive the failed batch and keep serving.
                good = await server.infer(
                    make_requests(1, "bert-base", WorkloadFamily.CLASSIFY, seed=6)[0]
                )
            return good

        good = asyncio.run(main())
        assert "label" in good.output

    def test_duplicate_request_id_rejected_up_front(self, repo):
        """A reused in-flight request id must error, not hang the scheduler."""

        async def main():
            engine = ServingEngine(repository=repo, max_batch_size=4, max_wait=0.005)
            async with AsyncServer(engine) as server:
                first, second = make_requests(2, "bert-base", WorkloadFamily.CLASSIFY, seed=7)
                second.request_id = first.request_id
                task = asyncio.ensure_future(server.infer(first))
                await asyncio.sleep(0)
                with pytest.raises(ServingError):
                    await server.infer(second)
                result = await task  # the original request still completes
            return result

        result = asyncio.run(main())
        assert "label" in result.output

    def test_stop_drains_in_flight_requests(self, repo):
        async def main():
            engine = ServingEngine(repository=repo, max_batch_size=8, max_wait=5.0)
            server = await AsyncServer(engine).start()
            requests = make_requests(3, "bert-base", WorkloadFamily.CLASSIFY, seed=5)
            tasks = [asyncio.ensure_future(server.infer(r)) for r in requests]
            await asyncio.sleep(0)  # let submissions land in the batcher
            await server.stop()     # must not strand the un-batched requests
            return await asyncio.gather(*tasks)

        results = asyncio.run(main())
        assert len(results) == 3
        assert all(r.output["probs"] for r in results)
