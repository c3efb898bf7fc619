"""OVP-quantized paged KV caches that quantize each sealed page in place.

The KV cache is the dominant memory consumer of LM serving: every decoded
token appends one K and one V vector per layer per head, and a full-precision
cache grows as ``4 bytes × 2 × layers × heads × head_dim`` per token.  OVP
encoding is a natural fit because it is *memory aligned* — a packed page is a
plain byte stream with no side tables, so paging the cache keeps the exact
DRAM layout the paper's accelerator assumes for weights, and each page
decodes on its own.

Layout
------
Each sequence owns one :class:`SequenceKVCache`; each layer of the sequence
owns a :class:`LayerKVCache`.  The rows ``[0, seq_len)`` attention reads
split at ``p``, the number of prefix tokens shared with other live
sequences (``p = 0`` unless the cache attached a prefix):

* rows ``[0, p)`` are read from a pool-owned *shared block* — one
  contiguous ``(heads, tokens, head_dim)`` K and V array per layer per
  attached prefix chain, decoded once for all its live holders and
  refcounted by them in the :class:`PagePool`;
* rows ``[p, seq_len)`` live in the cache's own contiguous K and V buffers:
  the dequantized values of the pages it sealed (or attached past the
  block), then the newest *open* rows (not yet sealed) in full precision;
* the list of *sealed pages* covers every page of ``[0, seq_len)``, shared
  or not — ``page_size`` timesteps of K (and V) quantized into one
  :class:`~repro.core.ovp.PackedOVPTensor` per page once they fill, with a
  per-page 3σ scale (the paper's initial-scale rule; no MSE search on the
  hot append path).

A page seals in one pass: encoding its rows writes their dequantized
values back over the same rows from the codes just computed (exactly what
decoding the packed bytes returns), and the packed bytes register in the
:class:`PagePool`.  After that the rows already hold what every later round
attends, so ``kv_many()`` returns views of the own buffers — no pool call,
no copy — and ``shared_kv()`` names the block that precedes them.
Capacity is sized at admission (prompt plus ``max_new_tokens``); a
standalone cache grows on demand.  Rows, shared blocks and decoded pages hold the dtype of the K/V the
model appends (float32 for a served model): an empty cache takes the dtype
of its first append, and each page remembers the dtype it sealed from, so
attaching it decodes back into that dtype.

Sealed pages live in the pool as refcounted :class:`PageHandle` entries.
Sealed pages are immutable byte streams, so requests whose token prefix
hashes to already-sealed pages *attach* to the existing entries
copy-on-write, skipping the prefill *and* the re-quantization of the shared
tokens.  The first live holder of a chain decodes it into the shared block;
later holders attach to the live block without decoding, and attention
scores every holder of a block against it in one GEMM per round.  The block
is freed with its last holder (the prefix index keeps packed pages only).

``quantize=False`` keeps sealed pages in full precision; this reference mode
is what the incremental-decode equivalence tests compare against full
recompute.  Reference pages flow through the same pool/refcount machinery
(prefix sharing and shared blocks included) but need no decode.

Sequences release their page and block references on retire/abort via
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
from repro.nn.functional import as_float
from repro.serve.requests import ServingError
from repro.serve.telemetry import Tracer

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
    prefix_sharing:
        Let the continuous scheduler attach new requests to already-sealed
        pages of a matching token prefix instead of re-prefilling them, and
        make a request wait for a prefix another request is still prefilling.
    """

    bits: int = 4
    page_size: int = 16
    quantize: bool = True
    prefix_sharing: bool = True

    def __post_init__(self) -> None:
        if self.bits not in (4, 8):
            raise ServingError("KV caches support 4- and 8-bit OVP only")
        if self.page_size < 1:
            raise ServingError("page_size must be >= 1")

    def make_codec(self) -> OVPairCodec:
        """Codec for sealed pages (paper defaults for the chosen width)."""
        normal_dtype = "int4" if self.bits == 4 else "int8"
        normal, outlier, bias = OVPQuantizerConfig(normal_dtype=normal_dtype).resolve()
        return OVPairCodec(normal, outlier, bias)


#: A sealed page payload: packed byte stream when quantizing, float otherwise.
_PagePayload = Union[PackedOVPTensor, np.ndarray]

_PAGE_IDS = itertools.count()


class PageHandle:
    """One sealed, immutable page registered in a :class:`PagePool`.

    ``refcount`` counts the sequences (and prefix-index nodes) referencing
    the page; the payload bytes are shared by all of them and never mutated.
    ``dtype`` is the dtype of the rows the page sealed from, which decoding
    it yields again.
    """

    __slots__ = ("page_id", "payload", "refcount", "dtype")

    def __init__(self, payload: _PagePayload, dtype=np.float64) -> None:
        self.page_id = next(_PAGE_IDS)
        self.payload = payload
        self.refcount = 1
        self.dtype = np.dtype(dtype)

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


class _SharedBlock:
    """The decoded K/V of one layer's attached prefix chain, shared by holders.

    ``k``/``v`` are ``(heads, pages * page_size, head_dim)``; the page
    handles they were decoded from identify the chain, so a later attach
    can tell how many of its leading pages the block serves.  ``holders``
    counts the live layer caches reading the block.
    """

    __slots__ = ("k_handles", "v_handles", "k", "v", "holders")

    def __init__(self, k_handles, v_handles, k: np.ndarray, v: np.ndarray) -> None:
        self.k_handles = list(k_handles)
        self.v_handles = list(v_handles)
        self.k = k
        self.v = v
        self.holders = 0

    @property
    def nbytes(self) -> int:
        return int(self.k.nbytes + self.v.nbytes)


@dataclass
class _PrefixNode:
    """Prefix-index entry: the K/V page handles of ONE page position, per layer."""

    k_handles: List[PageHandle]
    v_handles: List[PageHandle]

    def handles(self) -> List[PageHandle]:
        return self.k_handles + self.v_handles


class PagePool:
    """Shared store of sealed KV pages: refcounts, batched decode, prefixes.

    A pool is owned by one scheduler/engine (single-threaded use); sequences
    register pages as they seal, attach to existing pages on prefix hits, and
    release their references on retire.  Four concerns live here:

    * **refcounting** — a page is dropped once its last holder releases it;
    * **batched decode** — :meth:`decoded_many` is the one funnel every packed
      page decode passes through (a page decodes only when a prefix attaches
      it with no live shared block: never when it seals, never per round);
    * **prefix index** — a bounded LRU mapping page-aligned token-prefix hash
      chains to the sealed pages holding those tokens' K/V, enabling
      copy-on-write prompt sharing across requests;
    * **shared blocks** — one decoded K/V block per layer per attached prefix
      chain, keyed by the chain's first page and refcounted by the live
      caches reading it (:meth:`acquire_block`/:meth:`release_block`).
    """

    def __init__(self, prefix_capacity: int = 1024) -> None:
        if prefix_capacity < 1:
            raise ServingError("prefix_capacity must be >= 1")
        self.prefix_capacity = int(prefix_capacity)
        # Span tracer for seals and the batched pool decode, disabled until
        # the owning engine/scheduler hands over its own (last assignment
        # wins when a pool is shared, so share a tracer along with the pool).
        self.tracer = Tracer(enabled=False)
        self._entries: Dict[int, PageHandle] = {}
        # Live shared blocks, keyed by the page id of their chain's first K page.
        self._blocks: Dict[int, _SharedBlock] = {}
        # Decoded sealed rows held by the live caches of this pool: each
        # LayerKVCache adds and subtracts its own rows, each block counts once.
        self._decoded_bytes = 0
        self._sealed_bytes = 0
        # Live pages with more than one reference (kept as refcounts move).
        self._shared_pages = 0
        self._prefix_nodes: "OrderedDict[Tuple, _PrefixNode]" = OrderedDict()
        # Cumulative counters (monotonic; callers diff snapshots per round).
        self.decode_hits = 0
        self.decode_misses = 0
        self.pages_registered = 0
        self.pages_dropped = 0
        self.prefix_lookups = 0
        self.prefix_pages_attached = 0
        self.prefix_pages_indexed = 0

    # ------------------------------------------------------------------ #
    # Refcounted page registry
    # ------------------------------------------------------------------ #
    def register(self, payload: _PagePayload, dtype=np.float64) -> PageHandle:
        """Register a freshly sealed page of ``dtype`` rows; the caller holds
        the first ref."""
        handle = PageHandle(payload, dtype)
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
        elif handle.refcount == 1:
            self._shared_pages += 1
        handle.refcount += 1
        return handle

    def release(self, handle: PageHandle) -> None:
        """Drop one reference; the last release forgets the page entirely."""
        if handle.refcount <= 0:
            raise ServingError("KV page released more times than acquired")
        handle.refcount -= 1
        if handle.refcount == 1:
            self._shared_pages -= 1
        elif handle.refcount == 0:
            if self._entries.pop(handle.page_id, None) is not None:
                self._sealed_bytes -= handle.nbytes_resident
            self.pages_dropped += 1

    # ------------------------------------------------------------------ #
    # Batched decode
    # ------------------------------------------------------------------ #
    def decoded_many(
        self, handles: Sequence[PageHandle], codec: Optional[OVPairCodec]
    ) -> List[np.ndarray]:
        """Decoded fp values of ``handles``, one miss per packed page.

        Reference-mode (ndarray) payloads pass straight through.  Packed
        pages decode in one batched codec pass per page shape and dtype,
        into the dtype each page sealed from.  Both callers pass distinct
        pages (a chain building its shared block, an attach's tail past the
        block); a chain's pages served again by a live block count as hits
        in :meth:`acquire_block`, and a seal decodes nothing.
        The returned arrays are read-only by contract: callers copy them into
        their own rows.
        """
        out: List[Optional[np.ndarray]] = [None] * len(handles)
        pending: List[int] = []
        for j, handle in enumerate(handles):
            if handle.is_packed:
                pending.append(j)
            else:
                out[j] = handle.payload
        if pending:
            self.decode_misses += len(pending)
            if codec is None:
                raise ServingError("decoding packed KV pages requires a codec")
            tracer = self.tracer
            with tracer.span(
                "pool_decode", attrs={"pages": len(pending)} if tracer.enabled else None
            ):
                self._decode_pending(handles, pending, codec, out)
        return out  # type: ignore[return-value]

    @staticmethod
    def _decode_pending(
        handles: Sequence[PageHandle],
        pending: List[int],
        codec: OVPairCodec,
        out: List[Optional[np.ndarray]],
    ) -> None:
        """Batched OVP decode of the packed pages at ``pending`` (one codec
        pass per shape and dtype)."""
        by_kind: Dict[Tuple, List[int]] = {}
        for j in pending:
            handle = handles[j]
            by_kind.setdefault((tuple(handle.payload.shape), handle.dtype), []).append(j)
        for (_, dtype), positions in by_kind.items():
            pages = codec.decode_tensor_batch(
                [handles[j].payload for j in positions]
            ).astype(dtype, copy=False)
            for page, j in zip(pages, positions):
                out[j] = page

    # ------------------------------------------------------------------ #
    # Shared blocks
    # ------------------------------------------------------------------ #
    def acquire_block(
        self,
        k_handles: Sequence[PageHandle],
        v_handles: Sequence[PageHandle],
        codec: Optional[OVPairCodec],
    ) -> Tuple[_SharedBlock, int]:
        """Hold the live decoded block of a prefix chain; build it if none.

        Returns ``(block, pages)``: the block serves the chain's first
        ``pages`` pages.  A live block keyed by the same first page serves
        the leading pages both chains hold (a decode hit per K and V page);
        otherwise the whole chain decodes into a new block (misses).  The
        caller decodes any pages past ``pages`` itself and must pair this
        with one :meth:`release_block`.
        """
        key = k_handles[0].page_id
        block = self._blocks.get(key)
        if block is None:
            handles = [h for pair in zip(k_handles, v_handles) for h in pair]
            decoded = self.decoded_many(handles, codec)
            block = _SharedBlock(
                k_handles,
                v_handles,
                np.concatenate(decoded[0::2], axis=1),
                np.concatenate(decoded[1::2], axis=1),
            )
            self._blocks[key] = block
            self._decoded_bytes += block.nbytes
            pages = len(k_handles)
        else:
            pages = 0
            for held_k, held_v, k, v in zip(
                block.k_handles, block.v_handles, k_handles, v_handles
            ):
                if held_k is not k or held_v is not v:
                    break
                pages += 1
            self.decode_hits += 2 * pages
        block.holders += 1
        return block, pages

    def release_block(self, block: _SharedBlock) -> None:
        """Drop one holder; the last one frees the block's decoded rows."""
        if block.holders <= 0:
            raise ServingError("shared KV block released more times than acquired")
        block.holders -= 1
        if block.holders == 0:
            del self._blocks[block.k_handles[0].page_id]
            self._decoded_bytes -= block.nbytes

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

        ``token_ids`` are the tokens whose K/V the cache holds, from the
        first: every whole page of them must be sealed.  The scheduler calls
        this after every prefill chunk (with the chain appended so far, so
        requests waiting on an in-flight prefix find each chunk's pages at
        once) and at preemption, so the evicted sequence's resume
        re-attaches the rows it attended.  It never indexes at retirement:
        a page sealed during decode holds K/V its tokens computed while the
        page was open in full precision, which a prefill of the same tokens
        does not reproduce.  Pages already indexed (a shared sub-prefix) are
        refreshed, not duplicated; new nodes take one reference per handle
        so indexed pages survive the registering sequence's retirement.  The
        index is LRU-bounded; evicted nodes drop their references.
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
        return self._shared_pages

    @property
    def num_blocks(self) -> int:
        """Live shared blocks (each held by at least one cache)."""
        return len(self._blocks)

    @property
    def decoded_cache_bytes(self) -> int:
        """Bytes of decoded sealed K/V rows held by this pool's live caches
        (a shared block counts once, however many caches read it)."""
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
                "shared_blocks": self.num_blocks,
                "prefix_nodes": self.num_prefix_nodes,
            }
        )
        return snapshot


class LayerKVCache:
    """Paged K/V store of one layer of one sequence.

    ``capacity`` is the number of timesteps to reserve up front (rounded up
    to whole pages); the scheduler passes ``prompt + max_new_tokens`` so a
    request's rows never move.  Appending past the capacity grows the
    buffers geometrically.  A cache that attached a shared prefix stores
    only the rows past it (see the module docstring's Layout).
    """

    def __init__(self, num_heads: int, head_dim: int, config: KVCacheConfig,
                 codec: Optional[OVPairCodec] = None,
                 pool: Optional[PagePool] = None,
                 capacity: int = 0) -> None:
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)
        self.config = config
        self.codec = codec if codec is not None else (
            config.make_codec() if config.quantize else None
        )
        self.pool = pool if pool is not None else PagePool()
        self._sealed_k: List[PageHandle] = []
        self._sealed_v: List[PageHandle] = []
        # Resident bytes of the held pages, kept as pages are held and dropped.
        self._sealed_nbytes = 0
        # Rows [0, _shared) are the pool-owned _block's (none by default).
        self._block: Optional[_SharedBlock] = None
        self._shared = 0
        # Rows [_shared, seq_len) of K and V, stored from buffer row 0: the
        # decoded sealed pages, then the open rows in full precision.
        # float64 until the first append or attach sets the rows' dtype.
        rows = self._rounded(max(int(capacity), 1))
        self._k = np.empty((self.num_heads, rows, self.head_dim))
        self._v = np.empty((self.num_heads, rows, self.head_dim))
        self._seq_len = 0
        # Deferred-seal mode (speculative verify): appends stay in full
        # precision past page boundaries, so a rollback of rejected draft
        # tokens never has to reopen a quantized page.
        self._hold_seals = False

    def _rounded(self, tokens: int) -> int:
        size = self.config.page_size
        return -(-tokens // size) * size

    def _reserve(self, tokens: int) -> None:
        """Grow the own K/V buffers (keeping their rows) to hold ``tokens``."""
        tokens -= self._shared
        capacity = self._k.shape[1]
        if tokens <= capacity:
            return
        rows = self._rounded(max(tokens, 2 * capacity))
        own = self._seq_len - self._shared
        for name in ("_k", "_v"):
            grown = np.empty((self.num_heads, rows, self.head_dim), self._k.dtype)
            grown[:, :own] = getattr(self, name)[:, :own]
            setattr(self, name, grown)

    # ------------------------------------------------------------------ #
    # Sealed-page ownership (with the pool's decoded-row gauge)
    # ------------------------------------------------------------------ #
    @property
    def _page_nbytes(self) -> int:
        """Bytes of one page's decoded rows in one of the K/V buffers."""
        return self.num_heads * self.config.page_size * self.head_dim * self._k.itemsize

    def _extend(self, k_handles: Sequence[PageHandle], v_handles: Sequence[PageHandle]) -> None:
        """Append held pages (and their resident bytes)."""
        self._sealed_k.extend(k_handles)
        self._sealed_v.extend(v_handles)
        self._sealed_nbytes += sum(h.nbytes_resident for h in (*k_handles, *v_handles))

    def _hold(self, k_handles: Sequence[PageHandle], v_handles: Sequence[PageHandle]) -> None:
        """Take ownership of pages sealed (or attached) into the own rows."""
        self._extend(k_handles, v_handles)
        self.pool._decoded_bytes += (len(k_handles) + len(v_handles)) * self._page_nbytes

    def _drop(self, keep_pages: int) -> None:
        """Release every sealed page from ``keep_pages`` on.

        Only pages past the shared block count against the decoded-row
        gauge; the block's rows are the pool's, and only :meth:`release`
        drops the block's pages (``keep_pages == 0``).
        """
        dropped = self._sealed_k[keep_pages:] + self._sealed_v[keep_pages:]
        for handle in dropped:
            self.pool.release(handle)
        self._sealed_nbytes -= sum(h.nbytes_resident for h in dropped)
        own_pages = len(self._sealed_k) - max(keep_pages, self._shared // self.config.page_size)
        self.pool._decoded_bytes -= 2 * own_pages * self._page_nbytes
        del self._sealed_k[keep_pages:]
        del self._sealed_v[keep_pages:]

    def _release_block(self) -> None:
        self.pool.release_block(self._block)
        self._block = None
        self._shared = 0

    # ------------------------------------------------------------------ #
    # Append (quantize-on-append)
    # ------------------------------------------------------------------ #
    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> None:
        """Append new timesteps, sealing pages as they fill.

        ``k_new``/``v_new`` have shape ``(num_heads, t_new, head_dim)``;
        prefill appends the whole prompt at once, decode appends one step.
        An empty cache takes ``k_new``'s floating dtype for its rows (integer
        input means float64); a non-empty one casts into its rows' dtype.
        """
        k_new = as_float(k_new)
        v_new = as_float(v_new)
        expected = (self.num_heads, k_new.shape[1] if k_new.ndim == 3 else -1, self.head_dim)
        if k_new.shape != expected or v_new.shape != expected:
            raise ServingError(
                f"K/V step shapes {k_new.shape}/{v_new.shape} do not match "
                f"(num_heads={self.num_heads}, t, head_dim={self.head_dim})"
            )
        if self._seq_len == 0 and self._block is None and k_new.dtype != self._k.dtype:
            self._k = np.empty(self._k.shape, k_new.dtype)
            self._v = np.empty(self._v.shape, k_new.dtype)
        stop = self._seq_len + k_new.shape[1]
        self._reserve(stop)
        rows = slice(self._seq_len - self._shared, stop - self._shared)
        self._k[:, rows] = k_new
        self._v[:, rows] = v_new
        self._seq_len = stop
        if not self._hold_seals:
            self._seal_full_pages()

    def _seal_full_pages(self) -> None:
        """Seal every full page past the sealed ones, quantizing it in place.

        The K and V pages all encode through one codec pass, which also
        writes each page's dequantized values back over its rows from the
        codes it just computed (what :meth:`OVPairCodec.decode_tensor` of
        the packed bytes returns); those rows are what every later attend
        reads.  The packed pages then register in the pool.  An enabled pool
        tracer records the work as one ``seal`` span whose ``pages``
        attribute counts the K and V pages sealed.
        """
        size = self.config.page_size
        first, stop = len(self._sealed_k), self._seq_len // size
        if first >= stop:
            return
        tracer = self.pool.tracer
        with tracer.span(
            "seal", attrs={"pages": 2 * (stop - first)} if tracer.enabled else None
        ):
            pages = []
            for page in range(first, stop):
                start = page * size - self._shared
                rows = slice(start, start + size)
                pages += [self._k[:, rows], self._v[:, rows]]
            if self.config.quantize:
                scales = [self._page_scale(page) for page in pages]
                threshold = self.codec.normal_dtype.max_value
                payloads = self.codec.encode_tensor_batch(pages, scales, threshold, out=pages)
            else:
                payloads = [page.copy() for page in pages]
            handles = [self.pool.register(payload, self._k.dtype) for payload in payloads]
            self._hold(handles[0::2], handles[1::2])

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

        Sealed pages are immutable, so attaching takes references and reads
        rows ``[0, num_tokens)`` from the pool's shared block of the chain
        (:meth:`PagePool.acquire_block`), decoding nothing when a live
        holder already built it.  Pages past the ones the block serves
        decode into the own rows; this cache appends its own pages after
        them.  Only an empty cache may attach, and the pages must match this
        cache's geometry page for page.
        """
        if self._seq_len:
            raise ServingError("prefix pages attach to an empty KV cache only")
        if len(k_handles) != len(v_handles):
            raise ServingError("prefix attach needs matching K and V page lists")
        size = self.config.page_size
        if num_tokens != len(k_handles) * size:
            raise ServingError(
                f"prefix of {num_tokens} tokens does not fill "
                f"{len(k_handles)} pages of {size}"
            )
        expected = (self.num_heads, size, self.head_dim)
        handles = [h for pair in zip(k_handles, v_handles) for h in pair]
        for handle in handles:
            if tuple(handle.payload.shape) != expected:
                raise ServingError(
                    f"shared page shape {tuple(handle.payload.shape)} does not "
                    f"match cache geometry {expected}"
                )
        self._block, shared_pages = self.pool.acquire_block(k_handles, v_handles, self.codec)
        self._shared = shared_pages * size
        self._extend(
            [self.pool.incref(h) for h in k_handles[:shared_pages]],
            [self.pool.incref(h) for h in v_handles[:shared_pages]],
        )
        # The own buffers now start past the block, in its dtype: shrink the
        # reservation.
        rows = self._rounded(max(self._k.shape[1] - self._shared, 1))
        self._k = np.empty((self.num_heads, rows, self.head_dim), self._block.k.dtype)
        self._v = np.empty((self.num_heads, rows, self.head_dim), self._block.k.dtype)
        self._reserve(num_tokens)
        if shared_pages < len(k_handles):
            decoded = self.pool.decoded_many(handles[2 * shared_pages:], self.codec)
            for page in range(len(k_handles) - shared_pages):
                rows = slice(page * size, (page + 1) * size)
                self._k[:, rows] = decoded[2 * page]
                self._v[:, rows] = decoded[2 * page + 1]
            self._hold(
                [self.pool.incref(h) for h in k_handles[shared_pages:]],
                [self.pool.incref(h) for h in v_handles[shared_pages:]],
            )
        self._seq_len = int(num_tokens)
        self.pool.prefix_pages_attached += len(handles)

    def release(self) -> None:
        """Drop this cache's page and block references (retire/abort); the
        cache resets empty."""
        self._drop(0)
        if self._block is not None:
            self._release_block()
        self._seq_len = 0
        self._hold_seals = False

    # ------------------------------------------------------------------ #
    # Rollback (speculative decoding)
    # ------------------------------------------------------------------ #
    def hold_seals(self) -> None:
        """Defer page sealing: subsequent appends stay in full precision.

        The speculative verify pass appends ``k + 1`` tokens that may be
        partially rolled back; holding the seals keeps every appended row in
        full precision so :meth:`truncate_to` is exact — no sealed page has
        to be reopened through the lossy OVP round-trip.  Call
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
        self._seal_full_pages()

    def truncate_to(self, num_tokens: int) -> None:
        """Roll the cache back to its first ``num_tokens`` timesteps.

        Speculative decoding appends draft tokens optimistically and rolls
        the rejected suffix back here.  Truncating to the current length is
        an exact no-op.  A cut inside the open rows just shortens them; a
        cut inside a sealed page reopens that page *copy-on-write*: its kept
        rows already hold the decoded values and stay in place as open rows
        (the shared payload is never mutated), and this cache's references
        to the dropped pages are released.  A cut below the shared block's
        rows raises :class:`ServingError` and changes nothing: every
        rollback (failed prefill, draft, verify) returns to a length at or
        past the attached prefix.
        """
        num_tokens = int(num_tokens)
        if not 0 <= num_tokens <= self._seq_len:
            raise ServingError(
                f"cannot truncate a {self._seq_len}-token cache to {num_tokens}"
            )
        if num_tokens < self._shared:
            raise ServingError(
                f"cannot truncate to {num_tokens} tokens into a "
                f"{self._shared}-token shared prefix"
            )
        keep_pages = num_tokens // self.config.page_size
        if keep_pages < len(self._sealed_k):
            self._drop(keep_pages)
        self._seq_len = num_tokens

    # ------------------------------------------------------------------ #
    # Attend
    # ------------------------------------------------------------------ #
    def kv(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full ``(K, V)``, each ``(heads, seq, dim)``, for inspection.

        Without a shared prefix these are views of the rows, valid until the
        next append, seal or truncation; with one they are fresh copies of
        the block's rows followed by the own rows.  Attention never calls
        this on the hot path: it reads :meth:`kv_many` and :meth:`shared_kv`.
        """
        if self._seq_len == 0:
            raise ServingError("KV cache is empty; append before attending")
        own = self._seq_len - self._shared
        k, v = self._k[:, :own], self._v[:, :own]
        if self._block is None:
            return k, v
        return (
            np.concatenate([self._block.k[:, : self._shared], k], axis=1),
            np.concatenate([self._block.v[:, : self._shared], v], axis=1),
        )

    def shared_kv(self) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """``(K_block, V_block, p)`` when rows ``[0, p)`` come from a shared
        block, else ``None``.

        ``K_block``/``V_block`` are the pool-owned block arrays themselves
        (the same objects for every holder, possibly longer than ``p``), so
        attention can group a round's holders of one block by identity.
        """
        if self._block is None:
            return None
        return self._block.k, self._block.v, self._shared

    @classmethod
    def kv_many(cls, caches: Sequence["LayerKVCache"]) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The rows each slot of a round stores itself, as ``(K, V)`` views.

        These are rows ``[p, seq_len)``: everything after the slot's shared
        prefix (:meth:`shared_kv`), or its whole history when it has none.
        Every sealed page was decoded into its cache's rows (or its shared
        block) when it sealed or attached, so this is a list of views: no
        pool call and no copy.  (:meth:`MultiHeadAttention.forward_incremental
        <repro.nn.attention.MultiHeadAttention.forward_incremental>` picks
        this and :meth:`shared_kv` up by duck-typing, keeping ``repro.nn``
        free of serve imports.)

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
        return [
            (
                cache._k[:, : cache._seq_len - cache._shared],
                cache._v[:, : cache._seq_len - cache._shared],
            )
            for cache in caches
        ]

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
        served model's rows hold — even for a float64 model's rows.  Shared
        pages are charged to every holder (the per-sequence view);
        pool-level dedup shows up in the pool's own gauges.  The
        decoded rows attention reads (own rows plus each shared block once)
        are the pool's ``decoded_cache_bytes``.  The held pages' bytes are
        a running total, so a per-round read costs O(1).
        """
        open_len = self._seq_len - len(self._sealed_k) * self.config.page_size
        return self._sealed_nbytes + 2 * self.num_heads * open_len * self.head_dim * 4


class SequenceKVCache:
    """Per-sequence KV cache: one :class:`LayerKVCache` per decoder layer.

    All layers share one codec instance (the lookup tables are immutable) and
    one :class:`PagePool` (a private pool is built when none is passed), so
    building a cache per admitted request stays cheap.  ``capacity`` reserves
    that many timesteps of K/V rows per layer (see :class:`LayerKVCache`).
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int,
                 config: Optional[KVCacheConfig] = None,
                 pool: Optional[PagePool] = None,
                 capacity: int = 0) -> None:
        if num_layers < 1:
            raise ServingError("a KV cache needs at least one layer")
        self.config = config or KVCacheConfig()
        self.pool = pool if pool is not None else PagePool()
        codec = self.config.make_codec() if self.config.quantize else None
        self._layers = [
            LayerKVCache(
                num_heads, head_dim, self.config, codec=codec, pool=self.pool,
                capacity=capacity,
            )
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
    capacity: int = 0,
) -> SequenceKVCache:
    """Build an empty cache matching a causal LM's decoder geometry.

    Accepts a :class:`~repro.models.zoo.CausalLM` (or any module exposing a
    ``backbone``) or a bare decoder with ``layer_i.self_attention`` children.
    Pass ``pool`` to share one :class:`PagePool` across sequences (the
    scheduler does); otherwise the cache gets a private pool.  ``capacity``
    reserves K/V rows for that many timesteps (the scheduler passes prompt
    plus ``max_new_tokens``); without it the cache grows as it appends.
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
        capacity=capacity,
    )
