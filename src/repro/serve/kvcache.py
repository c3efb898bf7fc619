"""OVP-quantized paged KV caches with a shared, decode-once page pool.

The KV cache is the dominant memory consumer of LM serving: every decoded
token appends one K and one V vector per layer per head, and a full-precision
cache grows as ``4 bytes × 2 × layers × heads × head_dim`` per token.  OVP
encoding is a natural fit because it is *memory aligned* — a packed page is a
plain byte stream with no side tables, so paging the cache keeps the exact
DRAM layout the paper's accelerator assumes for weights.

Layout
------
Each sequence owns one :class:`SequenceKVCache`; each layer of the sequence
owns a :class:`LayerKVCache` holding

* a list of *sealed pages* — ``page_size`` timesteps of K (and V) quantized
  on append into one :class:`~repro.core.ovp.PackedOVPTensor` per page, with
  a per-page 3σ scale (the paper's initial-scale rule; no MSE search on the
  hot append path);
* one *open page* — the most recent ``< page_size`` timesteps kept in full
  precision until the page fills.

Sealed pages live in a :class:`PagePool` as refcounted
:class:`PageHandle` entries.  Sealed pages are immutable byte streams, so the
pool can

* **decode each page once** — a bounded LRU side-cache holds the decoded
  fp values, so the per-round attend cost stops paying an O(cached tokens)
  re-decode (``decoded-on-first-attend``, reused by every later round and by
  every sequence referencing the page);
* **share prompt prefixes** — requests whose token prefix hashes to
  already-sealed pages attach to the existing entries copy-on-write (sealed
  pages are never mutated; each sequence still owns its open page), skipping
  the prefill *and* the re-quantization of the shared tokens.

``quantize=False`` keeps sealed pages in full precision; this reference mode
is what the incremental-decode equivalence tests compare against full
recompute.  Reference pages flow through the same pool/refcount machinery
(prefix sharing included) but need no decode cache.

Sequences release their page references on retire/abort via
:meth:`SequenceKVCache.release`; a page is dropped once no sequence and no
prefix-index node references it.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ovp import OVPairCodec, PackedOVPTensor
from repro.core.quantizer import OVPQuantizerConfig
from repro.serve.requests import ServingError
from repro.serve.telemetry import NULL_TRACER

__all__ = [
    "KVCacheConfig",
    "PageHandle",
    "PagePool",
    "LayerKVCache",
    "SequenceKVCache",
    "cache_for_model",
]


@dataclass(frozen=True)
class KVCacheConfig:
    """How a sequence's K/V pages are stored.

    Parameters
    ----------
    bits:
        OVP precision of sealed pages: 4 (int4 + E2M1) or 8 (int8 + E4M3).
    page_size:
        Timesteps per page.  Smaller pages seal sooner (less full-precision
        residency) but pay per-page scale/encode overhead more often.
    quantize:
        ``False`` keeps sealed pages in full precision — the bit-exact
        reference mode used by the equivalence tests.
    pool_decoded_mb:
        Capacity of the page pool's decoded-page LRU side-cache in MiB.
        ``0`` disables decoded-page reuse entirely — every attend re-decodes
        every sealed page, the pre-pool baseline the benchmarks compare
        against.
    prefix_sharing:
        Let the continuous scheduler attach new requests to already-sealed
        pages of a matching token prefix instead of re-prefilling them.
    """

    bits: int = 4
    page_size: int = 16
    quantize: bool = True
    pool_decoded_mb: float = 64.0
    prefix_sharing: bool = True

    def __post_init__(self) -> None:
        if self.bits not in (4, 8):
            raise ServingError("KV caches support 4- and 8-bit OVP only")
        if self.page_size < 1:
            raise ServingError("page_size must be >= 1")
        if self.pool_decoded_mb < 0:
            raise ServingError("pool_decoded_mb must be >= 0")

    def make_codec(self) -> OVPairCodec:
        """Codec for sealed pages (paper defaults for the chosen width)."""
        normal_dtype = "int4" if self.bits == 4 else "int8"
        normal, outlier, bias = OVPQuantizerConfig(normal_dtype=normal_dtype).resolve()
        return OVPairCodec(normal, outlier, bias)

    def make_pool(self) -> "PagePool":
        """A page pool sized to this config's decoded-cache budget."""
        return PagePool(decoded_capacity_bytes=int(self.pool_decoded_mb * (1 << 20)))


#: A sealed page payload: packed byte stream when quantizing, float otherwise.
_PagePayload = Union[PackedOVPTensor, np.ndarray]

_PAGE_IDS = itertools.count()


class PageHandle:
    """One sealed, immutable page registered in a :class:`PagePool`.

    ``refcount`` counts the sequences (and prefix-index nodes) referencing
    the page; the payload bytes are shared by all of them and never mutated.
    """

    __slots__ = ("page_id", "payload", "refcount")

    def __init__(self, payload: _PagePayload) -> None:
        self.page_id = next(_PAGE_IDS)
        self.payload = payload
        self.refcount = 1

    @property
    def is_packed(self) -> bool:
        return isinstance(self.payload, PackedOVPTensor)

    @property
    def shared(self) -> bool:
        """True when more than one holder references this page."""
        return self.refcount > 1

    @property
    def nbytes_resident(self) -> int:
        """Resident bytes: packed stream, or fp32-equivalent for reference pages."""
        if self.is_packed:
            return int(self.payload.nbytes)
        return int(self.payload.size) * 4


@dataclass
class _PrefixNode:
    """Prefix-index entry: the K/V page handles of ONE page position, per layer."""

    k_handles: List[PageHandle]
    v_handles: List[PageHandle]

    def handles(self) -> List[PageHandle]:
        return self.k_handles + self.v_handles


class PagePool:
    """Shared store of sealed KV pages: refcounts, decode-once LRU, prefixes.

    A pool is owned by one scheduler/engine (single-threaded use); sequences
    register pages as they seal, attach to existing pages on prefix hits, and
    release their references on retire.  Three concerns live here:

    * **refcounting** — a page is dropped (and its decoded entry evicted)
      once its last holder releases it;
    * **decoded-page LRU** — packed pages decode at most once while the
      decoded values fit ``decoded_capacity_bytes``; every further attend is
      a pool hit that skips the OVP decode entirely;
    * **prefix index** — a bounded LRU mapping page-aligned token-prefix hash
      chains to the sealed pages holding those tokens' K/V, enabling
      copy-on-write prompt sharing across requests.
    """

    def __init__(
        self,
        decoded_capacity_bytes: int = 64 << 20,
        prefix_capacity: int = 1024,
    ) -> None:
        if decoded_capacity_bytes < 0:
            raise ServingError("decoded_capacity_bytes must be >= 0")
        if prefix_capacity < 1:
            raise ServingError("prefix_capacity must be >= 1")
        self.decoded_capacity_bytes = int(decoded_capacity_bytes)
        self.prefix_capacity = int(prefix_capacity)
        # Span tracer for the batched pool decode; the owning engine/
        # scheduler assigns its own tracer here (last assignment wins when a
        # pool is shared, so share a tracer along with the pool).
        self.tracer = NULL_TRACER
        self._entries: Dict[int, PageHandle] = {}
        self._decoded: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._decoded_bytes = 0
        self._sealed_bytes = 0
        self._prefix_nodes: "OrderedDict[Tuple, _PrefixNode]" = OrderedDict()
        # Cumulative counters (monotonic; callers diff snapshots per round).
        self.decode_hits = 0
        self.decode_misses = 0
        self.decoded_bytes_saved = 0
        self.pages_registered = 0
        self.pages_dropped = 0
        self.prefix_lookups = 0
        self.prefix_pages_attached = 0
        self.prefix_pages_indexed = 0

    # ------------------------------------------------------------------ #
    # Refcounted page registry
    # ------------------------------------------------------------------ #
    def register(self, payload: _PagePayload) -> PageHandle:
        """Register a freshly sealed page; the caller holds the first ref."""
        handle = PageHandle(payload)
        self._entries[handle.page_id] = handle
        self._sealed_bytes += handle.nbytes_resident
        self.pages_registered += 1
        return handle

    def incref(self, handle: PageHandle) -> PageHandle:
        """Acquire one more reference (re-registering a fully released page)."""
        if handle.refcount == 0:
            # Resurrection: the payload is still alive through the handle, so
            # re-admitting it is safe (prefix nodes can race slot release).
            self._entries[handle.page_id] = handle
            self._sealed_bytes += handle.nbytes_resident
        handle.refcount += 1
        return handle

    def release(self, handle: PageHandle) -> None:
        """Drop one reference; the last release forgets the page entirely."""
        if handle.refcount <= 0:
            raise ServingError("KV page released more times than acquired")
        handle.refcount -= 1
        if handle.refcount == 0:
            if self._entries.pop(handle.page_id, None) is not None:
                self._sealed_bytes -= handle.nbytes_resident
            cached = self._decoded.pop(handle.page_id, None)
            if cached is not None:
                self._decoded_bytes -= cached.nbytes
            self.pages_dropped += 1

    # ------------------------------------------------------------------ #
    # Decode-once LRU
    # ------------------------------------------------------------------ #
    def decoded_many(
        self, handles: Sequence[PageHandle], codec: Optional[OVPairCodec]
    ) -> List[np.ndarray]:
        """Decoded fp values of many pages, decoding each page at most once.

        Reference-mode (ndarray) payloads pass straight through.  Packed
        pages are served from the decoded LRU when present; the misses are
        decoded in one batched codec pass per page shape, deduplicated so a
        page referenced by several sequences in one round decodes once.
        """
        out: List[Optional[np.ndarray]] = [None] * len(handles)
        pending: "OrderedDict[int, List[int]]" = OrderedDict()
        for j, handle in enumerate(handles):
            if not handle.is_packed:
                out[j] = handle.payload
                continue
            cached = self._decoded.get(handle.page_id)
            if cached is not None:
                self._decoded.move_to_end(handle.page_id)
                self.decode_hits += 1
                self.decoded_bytes_saved += cached.nbytes
                out[j] = cached
                continue
            positions = pending.get(handle.page_id)
            if positions is None:
                pending[handle.page_id] = [j]
                self.decode_misses += 1
            else:
                positions.append(j)
        if pending:
            if codec is None:
                raise ServingError("decoding packed KV pages requires a codec")
            tracer = self.tracer
            if tracer.enabled:
                with tracer.span("pool_decode", attrs={"pages": len(pending)}):
                    self._decode_pending(handles, pending, codec, out)
            else:
                self._decode_pending(handles, pending, codec, out)
        return out  # type: ignore[return-value]

    def _decode_pending(
        self,
        handles: Sequence[PageHandle],
        pending: "OrderedDict[int, List[int]]",
        codec: OVPairCodec,
        out: List[Optional[np.ndarray]],
    ) -> None:
        """Batched OVP decode of the LRU misses (one codec pass per shape)."""
        by_shape: Dict[Tuple[int, ...], List[List[int]]] = {}
        for positions in pending.values():
            shape = tuple(handles[positions[0]].payload.shape)
            by_shape.setdefault(shape, []).append(positions)
        for groups in by_shape.values():
            pages = codec.decode_tensor_batch(
                [handles[positions[0]].payload for positions in groups]
            )
            for row, positions in enumerate(groups):
                array = self._admit_decoded(handles[positions[0]], pages[row])
                out[positions[0]] = array
                for j in positions[1:]:
                    # Same page requested twice in one round: the extra
                    # decode was saved even if the LRU is disabled.
                    self.decode_hits += 1
                    self.decoded_bytes_saved += array.nbytes
                    out[j] = array

    def _admit_decoded(self, handle: PageHandle, array: np.ndarray) -> np.ndarray:
        if self.decoded_capacity_bytes <= 0 or array.nbytes > self.decoded_capacity_bytes:
            return array
        array = array.copy()  # own the row, not a view of the batch decode
        self._decoded[handle.page_id] = array
        self._decoded_bytes += array.nbytes
        while self._decoded_bytes > self.decoded_capacity_bytes and self._decoded:
            _, evicted = self._decoded.popitem(last=False)
            self._decoded_bytes -= evicted.nbytes
        return array

    # ------------------------------------------------------------------ #
    # Prefix sharing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _page_digest(previous: bytes, page_tokens: np.ndarray) -> bytes:
        return hashlib.blake2b(
            previous + page_tokens.tobytes(), digest_size=16
        ).digest()

    def lookup_prefix(
        self, key, token_ids: np.ndarray, page_size: int, max_pages: int
    ) -> Tuple[int, List[List[PageHandle]], List[List[PageHandle]]]:
        """Longest chain of sealed pages covering ``token_ids``' prefix.

        ``key`` scopes the index (model identity); the chain hash walks
        page-aligned token chunks, so only whole shared pages match.  Returns
        ``(num_pages, layers_k, layers_v)`` where ``layers_k[layer]`` lists
        the matched pages' K handles in page order (empty on a miss).  The
        lookup takes no references — :meth:`LayerKVCache.attach` does.
        """
        self.prefix_lookups += 1
        token_ids = np.asarray(token_ids, dtype=np.int64)
        nodes: List[_PrefixNode] = []
        digest = b""
        for page in range(int(max_pages)):
            chunk = token_ids[page * page_size:(page + 1) * page_size]
            digest = self._page_digest(digest, chunk)
            node = self._prefix_nodes.get((key, digest))
            if node is None:
                break
            self._prefix_nodes.move_to_end((key, digest))
            nodes.append(node)
        if not nodes:
            return 0, [], []
        num_layers = len(nodes[0].k_handles)
        layers_k = [[node.k_handles[l] for node in nodes] for l in range(num_layers)]
        layers_v = [[node.v_handles[l] for node in nodes] for l in range(num_layers)]
        return len(nodes), layers_k, layers_v

    def register_prefix(self, key, token_ids: np.ndarray, cache: "SequenceKVCache") -> int:
        """Index ``cache``'s sealed pages under ``token_ids``' hash chain.

        Call with the prompt after a successful prefill (every full page of
        prompt tokens is sealed by then), or with ``prompt + generated`` at
        retirement when the scheduler shares generated suffixes — decode
        seals its pages the same way, so the chain extends naturally.  Pages
        already indexed (a shared sub-prefix) are refreshed, not duplicated;
        new nodes take one reference per handle so indexed pages survive the
        registering sequence's retirement.  The index is LRU-bounded; evicted
        nodes drop their references.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        page_size = cache.config.page_size
        num_pages = int(token_ids.size) // page_size
        digest = b""
        for page in range(num_pages):
            chunk = token_ids[page * page_size:(page + 1) * page_size]
            digest = self._page_digest(digest, chunk)
            node_key = (key, digest)
            if node_key in self._prefix_nodes:
                self._prefix_nodes.move_to_end(node_key)
                continue
            k_handles = [cache.layer(l)._sealed_k[page] for l in range(cache.num_layers)]
            v_handles = [cache.layer(l)._sealed_v[page] for l in range(cache.num_layers)]
            node = _PrefixNode(k_handles, v_handles)
            for handle in node.handles():
                self.incref(handle)
            self._prefix_nodes[node_key] = node
            self.prefix_pages_indexed += 1
        while len(self._prefix_nodes) > self.prefix_capacity:
            _, evicted = self._prefix_nodes.popitem(last=False)
            for handle in evicted.handles():
                self.release(handle)
        return num_pages

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_entries(self) -> int:
        """Live pages (referenced by at least one sequence or prefix node)."""
        return len(self._entries)

    @property
    def num_shared_pages(self) -> int:
        """Live pages currently referenced by more than one holder."""
        return sum(1 for handle in self._entries.values() if handle.shared)

    @property
    def decoded_cache_bytes(self) -> int:
        """Bytes held by the decoded-page LRU right now."""
        return self._decoded_bytes

    @property
    def sealed_bytes(self) -> int:
        """Resident bytes of all live sealed pages (packed OVP or fp32)."""
        return self._sealed_bytes

    @property
    def num_prefix_nodes(self) -> int:
        return len(self._prefix_nodes)

    def counters(self) -> Dict[str, int]:
        """Snapshot of the cumulative counters (diff two snapshots per round)."""
        return {
            "decode_hits": self.decode_hits,
            "decode_misses": self.decode_misses,
            "decoded_bytes_saved": self.decoded_bytes_saved,
            "pages_registered": self.pages_registered,
            "pages_dropped": self.pages_dropped,
            "prefix_lookups": self.prefix_lookups,
            "prefix_pages_attached": self.prefix_pages_attached,
            "prefix_pages_indexed": self.prefix_pages_indexed,
        }

    def stats(self) -> Dict[str, int]:
        """Counters plus live gauges (for demos/dashboards)."""
        snapshot = self.counters()
        snapshot.update(
            {
                "entries": self.num_entries,
                "shared_pages": self.num_shared_pages,
                "sealed_bytes": self.sealed_bytes,
                "decoded_cache_bytes": self.decoded_cache_bytes,
                "prefix_nodes": self.num_prefix_nodes,
            }
        )
        return snapshot


class LayerKVCache:
    """Paged K/V store of one layer of one sequence."""

    def __init__(self, num_heads: int, head_dim: int, config: KVCacheConfig,
                 codec: Optional[OVPairCodec] = None,
                 pool: Optional[PagePool] = None) -> None:
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.config = config
        self.codec = codec if codec is not None else (
            config.make_codec() if config.quantize else None
        )
        self.pool = pool if pool is not None else config.make_pool()
        self._sealed_k: List[PageHandle] = []
        self._sealed_v: List[PageHandle] = []
        # Open page: a preallocated (num_heads, page_size, head_dim) buffer
        # holding the newest _open_len (< page_size) timesteps, so appends
        # write rows in place instead of reallocating per step.
        self._open_k = np.zeros((self.num_heads, config.page_size, self.head_dim))
        self._open_v = np.zeros((self.num_heads, config.page_size, self.head_dim))
        self._open_len = 0
        self._seq_len = 0
        # Deferred-seal mode (speculative verify): appends accumulate in a
        # grown open buffer instead of sealing, so a rollback of rejected
        # draft tokens never has to reopen a quantized page.
        self._hold_seals = False
        # Reusable K/V assembly buffers for the batched round path (kv_many):
        # grown geometrically, so a steady decode loop stops allocating a
        # fresh concatenation every layer every round.  Callers read the
        # assembled views within one attend only (same contract as the
        # open-buffer view _finish already exposes).
        self._assembly: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Append (quantize-on-append)
    # ------------------------------------------------------------------ #
    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append new timesteps, sealing pages as they fill.

        ``k_new``/``v_new`` have shape ``(num_heads, t_new, head_dim)``;
        prefill appends the whole prompt at once, decode appends one step.
        """
        k_new = np.asarray(k_new, dtype=np.float64)
        v_new = np.asarray(v_new, dtype=np.float64)
        expected = (self.num_heads, k_new.shape[1] if k_new.ndim == 3 else -1, self.head_dim)
        if k_new.shape != expected or v_new.shape != expected:
            raise ServingError(
                f"K/V step shapes {k_new.shape}/{v_new.shape} do not match "
                f"(num_heads={self.num_heads}, t, head_dim={self.head_dim})"
            )
        size = self.config.page_size
        offset, total = 0, k_new.shape[1]
        if self._hold_seals:
            # Speculative verify appends: keep everything in full precision
            # (growing the open buffer past page_size if needed) so rejected
            # tokens roll back exactly; flush_seals() restores the invariant.
            needed = self._open_len + total
            if needed > self._open_k.shape[1]:
                self._open_k = self._grown(self._open_k, needed)
                self._open_v = self._grown(self._open_v, needed)
            self._open_k[:, self._open_len:needed] = k_new
            self._open_v[:, self._open_len:needed] = v_new
            self._open_len = needed
            self._seq_len += total
            return
        while offset < total:
            take = min(size - self._open_len, total - offset)
            stop = self._open_len + take
            self._open_k[:, self._open_len:stop] = k_new[:, offset:offset + take]
            self._open_v[:, self._open_len:stop] = v_new[:, offset:offset + take]
            self._open_len = stop
            offset += take
            if self._open_len == size:
                self._seal_open_page()
                self._open_len = 0
        self._seq_len += total

    def _seal_open_page(self) -> None:
        size = self.config.page_size
        self._seal_page(self._open_k[:, :size], self._open_v[:, :size])

    def _seal_page(self, k_page: np.ndarray, v_page: np.ndarray) -> None:
        """Seal one full ``(num_heads, page_size, head_dim)`` K/V page pair."""
        if not self.config.quantize:
            self._sealed_k.append(self.pool.register(k_page.copy()))
            self._sealed_v.append(self.pool.register(v_page.copy()))
            return
        if k_page.size % 2 == 0:
            # K and V pages seal together through one codec pass.
            pages = self.codec.encode_tensor_batch(
                [k_page, v_page],
                [self._page_scale(k_page), self._page_scale(v_page)],
                self.codec.normal_dtype.max_value,
            )
            self._sealed_k.append(self.pool.register(pages[0]))
            self._sealed_v.append(self.pool.register(pages[1]))
            return
        self._sealed_k.append(self.pool.register(self._seal(k_page)))
        self._sealed_v.append(self.pool.register(self._seal(v_page)))

    def _seal(self, page: np.ndarray) -> PackedOVPTensor:
        scale = self._page_scale(page)
        return self.codec.encode_tensor(page, scale, self.codec.normal_dtype.max_value)

    def _page_scale(self, page: np.ndarray) -> float:
        """3σ scale rule: normals span 3σ, anything beyond is an OVP outlier."""
        sigma = float(np.std(page))
        if sigma == 0.0:
            return max(float(np.max(np.abs(page))), 1.0) / self.codec.normal_dtype.max_value
        return 3.0 * sigma / self.codec.normal_dtype.max_value

    # ------------------------------------------------------------------ #
    # Prefix attach / release (pool-backed sharing)
    # ------------------------------------------------------------------ #
    def attach(
        self,
        k_handles: Sequence[PageHandle],
        v_handles: Sequence[PageHandle],
        num_tokens: int,
    ) -> None:
        """Adopt already-sealed pages as this cache's prefix (copy-on-write).

        Sealed pages are immutable, so attaching is reference-taking only;
        this cache appends its own open/sealed pages after them.  Only an
        empty cache may attach, and the pages must match this cache's
        geometry page for page.
        """
        if self._seq_len:
            raise ServingError("prefix pages attach to an empty KV cache only")
        if len(k_handles) != len(v_handles):
            raise ServingError("prefix attach needs matching K and V page lists")
        if num_tokens != len(k_handles) * self.config.page_size:
            raise ServingError(
                f"prefix of {num_tokens} tokens does not fill "
                f"{len(k_handles)} pages of {self.config.page_size}"
            )
        expected = (self.num_heads, self.config.page_size, self.head_dim)
        for handle in list(k_handles) + list(v_handles):
            if tuple(handle.payload.shape) != expected:
                raise ServingError(
                    f"shared page shape {tuple(handle.payload.shape)} does not "
                    f"match cache geometry {expected}"
                )
        for handle in k_handles:
            self._sealed_k.append(self.pool.incref(handle))
        for handle in v_handles:
            self._sealed_v.append(self.pool.incref(handle))
        self._seq_len = int(num_tokens)
        self.pool.prefix_pages_attached += len(k_handles) + len(v_handles)

    def release(self) -> None:
        """Drop this cache's page references (retire/abort); cache resets empty."""
        for handle in self._sealed_k:
            self.pool.release(handle)
        for handle in self._sealed_v:
            self.pool.release(handle)
        self._sealed_k, self._sealed_v = [], []
        self._open_len = 0
        self._seq_len = 0
        self._hold_seals = False
        self._assembly.clear()

    # ------------------------------------------------------------------ #
    # Rollback (speculative decoding)
    # ------------------------------------------------------------------ #
    def _grown(self, buffer: np.ndarray, capacity: int) -> np.ndarray:
        """A larger open buffer carrying the current rows.

        Growth is geometric and the grown buffer is kept for the cache's
        lifetime, so a steady stream of speculative verify rounds amortizes
        to zero allocations per round.
        """
        capacity = max(capacity, 2 * buffer.shape[1])
        grown = np.zeros((self.num_heads, capacity, self.head_dim))
        grown[:, : self._open_len] = buffer[:, : self._open_len]
        return grown

    def hold_seals(self) -> None:
        """Defer page sealing: subsequent appends stay in full precision.

        The speculative verify pass appends ``k + 1`` tokens that may be
        partially rolled back; holding the seals keeps every appended row in
        the (grown) open buffer so :meth:`truncate_to` is exact — no sealed
        page has to be reopened through the lossy OVP round-trip.  Call
        :meth:`flush_seals` once the accepted length is settled.
        """
        self._hold_seals = True

    def flush_seals(self) -> None:
        """Leave deferred-seal mode, sealing any full pages accumulated.

        Pages seal from exactly the same full-precision rows a non-deferred
        append sequence would have sealed, so the packed byte streams are
        bitwise identical to the eager-sealing path.
        """
        self._hold_seals = False
        size = self.config.page_size
        offset = 0
        while self._open_len - offset >= size:
            self._seal_page(
                self._open_k[:, offset:offset + size],
                self._open_v[:, offset:offset + size],
            )
            offset += size
        if offset:
            remainder = self._open_len - offset
            self._open_k[:, :remainder] = self._open_k[:, offset:self._open_len]
            self._open_v[:, :remainder] = self._open_v[:, offset:self._open_len]
            self._open_len = remainder

    def truncate_to(self, num_tokens: int) -> None:
        """Roll the cache back to its first ``num_tokens`` timesteps.

        Speculative decoding appends draft tokens optimistically and rolls
        the rejected suffix back here.  Truncating to the current length is
        an exact no-op.  A cut inside the open page just shortens it; a cut
        inside a sealed page reopens that page *copy-on-write* — the payload
        is decoded (never mutated, so pool-shared pages stay valid for every
        other holder) and the kept rows move into the open buffer — then this
        cache's references to the dropped pages are released.
        """
        num_tokens = int(num_tokens)
        if not 0 <= num_tokens <= self._seq_len:
            raise ServingError(
                f"cannot truncate a {self._seq_len}-token cache to {num_tokens}"
            )
        if num_tokens == self._seq_len:
            return
        size = self.config.page_size
        sealed_tokens = len(self._sealed_k) * size
        if num_tokens >= sealed_tokens:
            # The cut lands in the open page: forget the tail rows (stale
            # values beyond _open_len are never read and get overwritten).
            self._open_len = num_tokens - sealed_tokens
            self._seq_len = num_tokens
            return
        keep_pages, tail = divmod(num_tokens, size)
        kept_k = kept_v = None
        if tail:
            decoded = self.pool.decoded_many(
                [self._sealed_k[keep_pages], self._sealed_v[keep_pages]], self.codec
            )
            kept_k = decoded[0][:, :tail].copy()
            kept_v = decoded[1][:, :tail].copy()
        for handle in self._sealed_k[keep_pages:]:
            self.pool.release(handle)
        for handle in self._sealed_v[keep_pages:]:
            self.pool.release(handle)
        del self._sealed_k[keep_pages:]
        del self._sealed_v[keep_pages:]
        if tail:
            self._open_k[:, :tail] = kept_k
            self._open_v[:, :tail] = kept_v
        self._open_len = tail
        self._seq_len = num_tokens

    # ------------------------------------------------------------------ #
    # Attend (decode-once-on-attend)
    # ------------------------------------------------------------------ #
    def kv(self) -> Tuple[np.ndarray, np.ndarray]:
        """Decode and return the full ``(K, V)``, each ``(heads, seq, dim)``."""
        if self._seq_len == 0:
            raise ServingError("KV cache is empty; append before attending")
        decoded = self.pool.decoded_many(self._sealed_k + self._sealed_v, self.codec)
        split = len(self._sealed_k)
        return (
            self._finish(decoded[:split], self._open_k),
            self._finish(decoded[split:], self._open_v),
        )

    @classmethod
    def kv_many(cls, caches: Sequence["LayerKVCache"]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """``kv()`` for many caches with one batched page-pool fetch.

        A continuous-batching decode round attends every active slot against
        this layer; fetching each slot's pages separately pays the pool/codec
        per-call overhead ``2 × slots`` times.  All pages of one pool are
        fetched in a single pass instead (hits straight from the decoded LRU,
        misses in one batched codec decode per page shape), then each cache's
        K/V are reassembled in order.  (:meth:`MultiHeadAttention.forward_incremental
        <repro.nn.attention.MultiHeadAttention.forward_incremental>` picks
        this up by duck-typing, keeping ``repro.nn`` free of serve imports.)

        All caches must agree on quantize mode and OVP width — a decode round
        mixing packed and reference caches (or 4- and 8-bit codecs) is a
        configuration error and raises :class:`ServingError` up front.
        """
        if not caches:
            raise ServingError("kv_many needs at least one cache; nothing to attend")
        quantize_modes = {cache.config.quantize for cache in caches}
        if len(quantize_modes) != 1:
            raise ServingError(
                "kv_many cannot mix quantized and reference-mode caches; "
                "split the decode round by cache config"
            )
        if caches[0].config.quantize:
            widths = {cache.config.bits for cache in caches}
            if len(widths) != 1:
                raise ServingError(
                    f"kv_many cannot mix OVP widths {sorted(widths)}; "
                    "split the decode round by cache config"
                )
        for cache in caches:
            if cache.seq_len == 0:
                raise ServingError("KV cache is empty; append before attending")
        decoded_k: List[Optional[List[np.ndarray]]] = [None] * len(caches)
        decoded_v: List[Optional[List[np.ndarray]]] = [None] * len(caches)
        by_pool: Dict[int, List[int]] = {}
        for index, cache in enumerate(caches):
            by_pool.setdefault(id(cache.pool), []).append(index)
        for indices in by_pool.values():
            pool = caches[indices[0]].pool
            codec = next(
                (caches[i].codec for i in indices if caches[i].codec is not None), None
            )
            handles: List[PageHandle] = []
            for i in indices:
                handles.extend(caches[i]._sealed_k)
                handles.extend(caches[i]._sealed_v)
            arrays = pool.decoded_many(handles, codec)
            offset = 0
            for i in indices:
                nk, nv = len(caches[i]._sealed_k), len(caches[i]._sealed_v)
                decoded_k[i] = arrays[offset:offset + nk]
                decoded_v[i] = arrays[offset + nk:offset + nk + nv]
                offset += nk + nv
        return [
            (
                cache._finish(decoded_k[i], cache._open_k, reuse="k"),
                cache._finish(decoded_v[i], cache._open_v, reuse="v"),
            )
            for i, cache in enumerate(caches)
        ]

    def _finish(
        self,
        decoded_pages: List[np.ndarray],
        open_buffer: np.ndarray,
        reuse: Optional[str] = None,
    ) -> np.ndarray:
        """Concatenate decoded sealed pages with the open-page rows.

        Callers only read the assembled K/V within one attend, so exposing a
        view of the reusable open buffer (rather than a copy) is safe.  The
        batched round path passes ``reuse`` ("k"/"v") to assemble into this
        cache's persistent buffer instead of a fresh ``np.concatenate`` —
        same copies, no per-layer-per-round allocation; the returned view is
        only valid until the next round assembles over it.
        """
        parts = list(decoded_pages)
        if self._open_len:
            parts.append(open_buffer[:, : self._open_len])
        if len(parts) == 1:
            return parts[0]
        if reuse is None:
            return np.concatenate(parts, axis=1)
        total = sum(part.shape[1] for part in parts)
        buffer = self._assembly.get(reuse)
        if buffer is None or buffer.shape[1] < total:
            capacity = max(total, 2 * (0 if buffer is None else buffer.shape[1]))
            buffer = np.empty((self.num_heads, capacity, self.head_dim))
            self._assembly[reuse] = buffer
        offset = 0
        for part in parts:
            buffer[:, offset : offset + part.shape[1]] = part
            offset += part.shape[1]
        return buffer[:, :total]

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    @property
    def seq_len(self) -> int:
        """Cached timesteps."""
        return self._seq_len

    @property
    def num_sealed_pages(self) -> int:
        """Sealed (quantized) pages currently held, counting K and V pages."""
        return len(self._sealed_k) + len(self._sealed_v)

    @property
    def num_shared_pages(self) -> int:
        """Held pages that other sequences (or the prefix index) also reference."""
        return sum(1 for h in self._sealed_k if h.shared) + sum(
            1 for h in self._sealed_v if h.shared
        )

    @property
    def kv_elements(self) -> int:
        """Cached scalars: K and V over every head and timestep."""
        return 2 * self.num_heads * self._seq_len * self.head_dim

    @property
    def fp32_bytes(self) -> int:
        """Bytes an unquantized fp32 cache would need for the same tokens."""
        return self.kv_elements * 4

    @property
    def cache_bytes(self) -> int:
        """Resident cache footprint: packed sealed pages + fp32 open rows.

        Full-precision storage (open rows, and sealed pages in the
        ``quantize=False`` reference mode) is charged at fp32 — the dtype a
        production fp cache would hold — even though NumPy computes in
        float64.  Shared pages are charged to every holder (the per-sequence
        view); pool-level dedup shows up in the pool's own gauges.
        """
        sealed = sum(h.nbytes_resident for h in self._sealed_k)
        sealed += sum(h.nbytes_resident for h in self._sealed_v)
        open_elems = 2 * self.num_heads * self._open_len * self.head_dim
        return int(sealed + open_elems * 4)


class SequenceKVCache:
    """Per-sequence KV cache: one :class:`LayerKVCache` per decoder layer.

    All layers share one codec instance (the lookup tables are immutable) and
    one :class:`PagePool` (a private pool is built when none is passed), so
    building a cache per admitted request stays cheap.
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int,
                 config: Optional[KVCacheConfig] = None,
                 pool: Optional[PagePool] = None) -> None:
        if num_layers < 1:
            raise ServingError("a KV cache needs at least one layer")
        self.config = config or KVCacheConfig()
        self.pool = pool if pool is not None else self.config.make_pool()
        codec = self.config.make_codec() if self.config.quantize else None
        self._layers = [
            LayerKVCache(num_heads, head_dim, self.config, codec=codec, pool=self.pool)
            for _ in range(num_layers)
        ]

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    def layer(self, index: int) -> LayerKVCache:
        """The cache of decoder layer ``index``."""
        return self._layers[index]

    @property
    def seq_len(self) -> int:
        """Cached timesteps (identical across layers by construction)."""
        return self._layers[0].seq_len

    def attach_prefix(
        self,
        layers_k: Sequence[Sequence[PageHandle]],
        layers_v: Sequence[Sequence[PageHandle]],
        num_tokens: int,
    ) -> None:
        """Adopt a shared sealed-page prefix on every layer (copy-on-write).

        ``layers_k[layer]``/``layers_v[layer]`` list the pages in page order,
        as returned by :meth:`PagePool.lookup_prefix`.
        """
        if len(layers_k) != self.num_layers or len(layers_v) != self.num_layers:
            raise ServingError(
                f"prefix covers {len(layers_k)} layers; cache has {self.num_layers}"
            )
        for layer, k_handles, v_handles in zip(self._layers, layers_k, layers_v):
            layer.attach(k_handles, v_handles, num_tokens)

    def release(self) -> None:
        """Drop every layer's page references (call on retire/abort)."""
        for layer in self._layers:
            layer.release()

    def hold_seals(self) -> None:
        """Defer page sealing on every layer (speculative verify append)."""
        for layer in self._layers:
            layer.hold_seals()

    def flush_seals(self) -> None:
        """Leave deferred-seal mode on every layer, sealing full pages."""
        for layer in self._layers:
            layer.flush_seals()

    def truncate_to(self, num_tokens: int) -> None:
        """Roll every layer back to ``num_tokens`` timesteps (see
        :meth:`LayerKVCache.truncate_to`); refcount-safe against shared
        sealed pages, exact no-op at the current length."""
        for layer in self._layers:
            layer.truncate_to(num_tokens)

    @property
    def fp32_bytes(self) -> int:
        """Bytes an fp32 cache would need for the currently cached tokens."""
        return sum(layer.fp32_bytes for layer in self._layers)

    @property
    def cache_bytes(self) -> int:
        """Resident footprint: OVP-packed sealed pages + fp32 open pages."""
        return sum(layer.cache_bytes for layer in self._layers)

    @property
    def compression_ratio(self) -> float:
        """fp32 footprint / resident footprint (→ ~8 for fully-sealed 4-bit)."""
        resident = self.cache_bytes
        return self.fp32_bytes / resident if resident else 0.0

    def memory_summary(self) -> dict:
        """Footprint numbers for stats/demos."""
        return {
            "seq_len": self.seq_len,
            "kv_fp32_bytes": self.fp32_bytes,
            "kv_cache_bytes": self.cache_bytes,
            "kv_compression": round(self.compression_ratio, 2),
            "sealed_pages": sum(l.num_sealed_pages for l in self._layers),
            "shared_pages": sum(l.num_shared_pages for l in self._layers),
        }


def validate_token_budget(model, request) -> None:
    """Reject a generation request that would outgrow ``model``'s positions.

    The continuous scheduler runs it at admission, failing just that
    request.  Models without a ``config.max_positions`` are not pre-checked;
    they fail at decode time instead, which the scheduler already isolates.

    The final generated token is returned but never fed back through the
    embedding, so a request embeds ``seq_len + max_new_tokens - 1`` positions.
    """
    limit = getattr(getattr(model, "config", None), "max_positions", None)
    max_new_tokens = request.sampling.max_new_tokens
    if limit is not None and request.seq_len + max_new_tokens - 1 > limit:
        raise ServingError(
            f"request {request.request_id!r}: prompt ({request.seq_len}) + "
            f"max_new_tokens ({max_new_tokens}) exceeds the model's "
            f"{limit} positions"
        )


def cache_for_model(
    model,
    config: Optional[KVCacheConfig] = None,
    pool: Optional[PagePool] = None,
) -> SequenceKVCache:
    """Build an empty cache matching a causal LM's decoder geometry.

    Accepts a :class:`~repro.models.zoo.CausalLM` (or any module exposing a
    ``backbone``) or a bare decoder with ``layer_i.self_attention`` children.
    Pass ``pool`` to share one :class:`PagePool` across sequences (the
    scheduler does); otherwise the cache gets a private pool.
    """
    backbone = getattr(model, "backbone", model)
    num_layers = getattr(backbone, "num_layers", None)
    first_layer = getattr(backbone, "layer_0", None)
    attention = getattr(first_layer, "self_attention", None)
    if num_layers is None or attention is None:
        raise ServingError(
            "model has no decoder backbone with self-attention layers; "
            "KV caches require a causal (decoder-only) LM"
        )
    return SequenceKVCache(
        num_layers=int(num_layers),
        num_heads=attention.num_heads,
        head_dim=attention.head_dim,
        config=config,
        pool=pool,
    )
