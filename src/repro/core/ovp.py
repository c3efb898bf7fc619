"""Outlier-victim pair (OVP) encoding (paper Section 3, Algorithm 1, Fig. 4).

A tensor is processed two adjacent elements at a time.  Three pair shapes can
occur (paper Table 2):

* **normal-normal** — both values are quantized with the normal data type;
* **outlier-normal** — the normal value is *pruned* (it becomes the *victim*)
  and its slot stores the outlier identifier, while the outlier is quantized
  with :mod:`repro.core.abfloat` into the adjacent slot;
* **outlier-outlier** — the smaller outlier is pruned, the larger is kept
  (this shape occurs for < 0.06 % of pairs in well-trained LLMs).

The encoding is *memory aligned*: every pair still occupies exactly
``2 × bits`` of storage, so the resulting byte stream is indistinguishable
from a plain low-bit tensor as far as the memory subsystem is concerned.

All functions here operate on the *integer grid*, i.e. on values already
divided by the tensor scale factor; the scale/threshold search lives in
:mod:`repro.core.quantizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.abfloat import AbfloatType
from repro.core.dtypes import NormalDataType
from repro.core.errors import EncodingError

__all__ = [
    "PairKind",
    "OVPairCodec",
    "PackedOVPTensor",
]


class PairKind:
    """Symbolic names for the three pair shapes."""

    NORMAL_NORMAL = "normal-normal"
    OUTLIER_NORMAL = "outlier-normal"
    OUTLIER_OUTLIER = "outlier-outlier"


@dataclass
class PackedOVPTensor:
    """A memory-aligned OVP-encoded tensor.

    Attributes
    ----------
    data:
        ``uint8`` byte stream.  For 4-bit encodings each byte holds one pair
        (high nibble = first element); for 8-bit encodings each element is one
        byte, pairs are adjacent bytes.
    shape:
        Original tensor shape.
    scale:
        The tensor scale factor: real value = grid value × scale.
    normal_dtype / abfloat_name / bias:
        Names describing how to decode the stream.
    padded:
        True when one trailing grid element was appended to make the length
        even; it is stripped again on decode.
    """

    data: np.ndarray
    shape: Tuple[int, ...]
    scale: float
    normal_dtype: str
    abfloat_name: str
    bias: int
    padded: bool = False

    @property
    def nbytes(self) -> int:
        """Size of the encoded payload in bytes (what DRAM traffic sees)."""
        return int(self.data.nbytes)

    @property
    def num_elements(self) -> int:
        """Number of real (un-padded) tensor elements represented."""
        return int(np.prod(self.shape)) if self.shape else 1


class OVPairCodec:
    """Bit-accurate encoder/decoder for outlier-victim pairs.

    Parameters
    ----------
    normal_dtype:
        Data type used for normal values (``int4``, ``flint4`` or ``int8``).
    abfloat_type:
        The outlier data type (E2M1 for 4-bit, E4M3 for 8-bit in the paper).
    bias:
        Adaptive bias applied to the abfloat exponent.
    max_outlier_magnitude:
        Hard clip applied to decoded outlier magnitudes so products fit the
        32-bit accumulator (the paper clips at ``2**15``, Sec. 4.5).
    """

    def __init__(
        self,
        normal_dtype: NormalDataType,
        abfloat_type: AbfloatType,
        bias: int,
        max_outlier_magnitude: float = float(2 ** 15),
    ) -> None:
        if normal_dtype.bits not in (4, 8):
            raise EncodingError("OVP encoding supports 4- and 8-bit normal types only")
        if abfloat_type.bits != normal_dtype.bits:
            raise EncodingError(
                "outlier and normal data types must have the same storage width "
                f"(got {abfloat_type.bits} and {normal_dtype.bits})"
            )
        self.normal_dtype = normal_dtype
        self.abfloat_type = abfloat_type
        self.bias = int(bias)
        self.max_outlier_magnitude = float(max_outlier_magnitude)
        # Outlier magnitudes representable on the integer grid, pre-clipped.
        mags = abfloat_type.magnitude_values(bias)
        self._outlier_grid = mags[mags <= self.max_outlier_magnitude]
        if self._outlier_grid.size == 0:
            raise EncodingError("abfloat bias leaves no representable outlier values")
        self._build_vector_tables()

    def _build_vector_tables(self) -> None:
        """Precompute the lookup tables the vectorized codec paths use.

        * ``_normal_code_lut`` maps a quantized normal value ``q`` (every
          normal grid holds integers) to its bit pattern at ``lut[q + max]``;
          only grids without ``uniform_int_grid`` (``flint4``) read it;
        * ``_normal_decode_lut`` maps every possible code to its normal value
          (identifier/invalid slots hold 0 and are overwritten by the pair
          logic before use);
        * ``_outlier_decode_lut`` maps every possible code to its clipped
          abfloat value.
        """
        dtype = self.normal_dtype
        offset = int(dtype.max_value)
        code_lut = np.zeros(2 * offset + 1, dtype=np.uint8)
        for value, code in dtype.code_of_value.items():
            code_lut[int(value) + offset] = code
        self._normal_code_lut = code_lut
        normal_lut = np.zeros(dtype.num_codes, dtype=np.float64)
        for code, value in dtype.value_of_code.items():
            normal_lut[code] = value
        self._normal_decode_lut = normal_lut
        outlier_lut = np.array(
            [self._decode_outlier(code) for code in range(1 << self.abfloat_type.bits)],
            dtype=np.float64,
        )
        self._outlier_decode_lut = outlier_lut

    # ------------------------------------------------------------------ #
    # Scalar pair paths (Algorithm 1)
    # ------------------------------------------------------------------ #
    def classify_pair(self, val1: float, val2: float, threshold: float) -> str:
        """Classify a grid-value pair into one of the three pair shapes."""
        out1 = abs(val1) > threshold
        out2 = abs(val2) > threshold
        if out1 and out2:
            return PairKind.OUTLIER_OUTLIER
        if out1 or out2:
            return PairKind.OUTLIER_NORMAL
        return PairKind.NORMAL_NORMAL

    def encode_pair(self, val1: float, val2: float, threshold: float) -> Tuple[int, int]:
        """Encode one pair of grid values into two bit patterns (Algorithm 1)."""
        identifier = self.normal_dtype.identifier_code
        if abs(val1) > threshold and abs(val1) > abs(val2):
            out1 = self._encode_outlier(val1)
            out2 = identifier
        elif abs(val2) > threshold:
            out1 = identifier
            out2 = self._encode_outlier(val2)
        else:
            out1 = self.normal_dtype.encode(float(self.normal_dtype.quantize(val1)))
            out2 = self.normal_dtype.encode(float(self.normal_dtype.quantize(val2)))
        return out1, out2

    def decode_pair(self, code1: int, code2: int) -> Tuple[float, float]:
        """Decode two bit patterns back into grid values.

        The victim slot decodes to exactly 0, mirroring the hardware OVP
        decoder (paper Fig. 6b).
        """
        identifier = self.normal_dtype.identifier_code
        if code1 == identifier and code2 == identifier:
            # Cannot occur from encode_pair; treat as two pruned values.
            return 0.0, 0.0
        if code2 == identifier:
            return float(self._decode_outlier(code1)), 0.0
        if code1 == identifier:
            return 0.0, float(self._decode_outlier(code2))
        return (
            float(self.normal_dtype.decode(code1)),
            float(self.normal_dtype.decode(code2)),
        )

    def _encode_outlier(self, value: float) -> int:
        clipped = float(np.clip(value, -self.max_outlier_magnitude, self.max_outlier_magnitude))
        return self.abfloat_type.encode(clipped, self.bias)

    def _decode_outlier(self, code: int) -> float:
        value = float(self.abfloat_type.decode(code, self.bias))
        return float(np.clip(value, -self.max_outlier_magnitude, self.max_outlier_magnitude))

    # ------------------------------------------------------------------ #
    # Vectorised element paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pair_outlier_masks(
        pairs: np.ndarray, threshold: float, scratch: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorised Algorithm-1 pair classification, sparse in the outliers.

        ``pairs`` is the ``(n, 2)`` view of a flat grid.  Returns the flat
        grid positions of the kept outliers, at most one per pair; the victim
        of the outlier at position ``p`` is its partner ``p ^ 1``.  A pair is
        a candidate when either magnitude exceeds ``threshold`` (a NaN
        exceeds nothing, so it never hides its partner), and only candidates
        go through the tie-break: the first element is kept when it exceeds
        ``threshold`` and is strictly larger than its partner, otherwise the
        second when it exceeds ``threshold``, matching :meth:`encode_pair`.
        Outliers are a fraction of a percent of real tensors, so callers
        scatter only these slots instead of masking every pair.  Both the
        fake-quantization path and the bit-packed encoder share this single
        predicate so the ``decode(encode(x)) == fake_quantize(x)`` invariant
        cannot drift.

        The candidate scan runs in a bool buffer of ``2 * pairs.size``
        elements: ``scratch`` when given (the quantizer's threshold sweep
        reuses one across its candidates), a fresh one otherwise.
        """
        size = pairs.size
        if scratch is None:
            scratch = np.empty(2 * size, dtype=bool)
        above = scratch[:size].reshape(pairs.shape)
        below = scratch[size:2 * size].reshape(pairs.shape)
        np.greater(pairs, threshold, out=above)
        np.less(pairs, -threshold, out=below)
        np.logical_or(above, below, out=above)  # |x| > threshold per element
        # The two flags of a pair are adjacent bytes: one uint16 per pair is
        # nonzero exactly when either element exceeds the threshold.
        flagged = below.reshape(-1)[: size // 2]
        np.not_equal(above.reshape(-1).view(np.uint16), 0, out=flagged)
        candidates = np.flatnonzero(flagged)
        if not candidates.size:
            return candidates
        mags = np.abs(pairs[candidates])
        abs_a, abs_b = mags[:, 0], mags[:, 1]
        a_wins = (abs_a > threshold) & (abs_a > abs_b)
        b_wins = (abs_b > threshold) & ~a_wins
        kept = a_wins | b_wins  # all candidates unless a NaN is involved
        return 2 * candidates[kept] + b_wins[kept]

    def _encode_normal_values(self, values: np.ndarray) -> np.ndarray:
        """Vectorised normal-value encode: quantize, then map value → code.

        Quantized values are integers in ``[-max, max]``.  On a
        ``uniform_int_grid`` the code is the two's-complement bit pattern
        ``_build_int_type`` assigns, i.e. the ``int8`` cast masked to
        ``bits``; other grids (``flint4``) index ``_normal_code_lut`` at
        ``q + max``.  Callers reject NaN first: its cast is undefined.
        """
        dtype = self.normal_dtype
        quantized = dtype.quantize(values)
        if dtype.uniform_int_grid:
            codes = quantized.astype(np.int8).view(np.uint8)
            codes &= np.uint8(dtype.num_codes - 1)
            return codes
        quantized += dtype.max_value
        return self._normal_code_lut[quantized.astype(np.intp)]

    def _encode_outlier_values(self, values: np.ndarray) -> np.ndarray:
        """Vectorised abfloat outlier encode (Algorithm 2, bit-exact).

        Mirrors :meth:`AbfloatType.encode` exactly, including banker's
        rounding of the mantissa and the renormalisation step, so the
        vectorized encoder emits the same bit patterns as the scalar oracle.
        """
        abf = self.abfloat_type
        clipped = np.clip(
            np.asarray(values, dtype=np.float64),
            -self.max_outlier_magnitude,
            self.max_outlier_magnitude,
        )
        magnitude = np.abs(clipped)
        mb = abf.man_bits
        min_code = 1
        max_code = (1 << abf.magnitude_bits) - 1
        codes = np.full(magnitude.shape, min_code, dtype=np.int64)
        positive = magnitude > 0
        if np.any(positive):
            mag = magnitude[positive]
            exp = np.floor(np.log2(mag)).astype(np.int64) - mb
            base_int = np.rint(mag / np.exp2(exp.astype(np.float64))).astype(np.int64)
            renorm = base_int == (1 << (mb + 1))
            exp = np.where(renorm, exp + 1, exp)
            base_int = np.where(renorm, base_int >> 1, base_int)
            exp_field = exp - self.bias
            man_field = base_int & abf.max_mantissa_field
            code = np.maximum((exp_field << mb) | man_field, min_code)
            code = np.where(exp_field < 0, min_code, code)
            code = np.where(exp_field > abf.max_exponent_field, max_code, code)
            codes[positive] = code
        sign_bit = (clipped < 0).astype(np.int64)
        return ((sign_bit << abf.magnitude_bits) | codes).astype(np.uint8)

    def _encode_grid(self, grid: np.ndarray, threshold: float) -> np.ndarray:
        """Encode an even-length flat grid array into one code per element.

        Every slot is first encoded as a normal value; then only the outlier
        slots and their victims are overwritten.  NaN has no code and raises
        :class:`EncodingError`; ±inf saturates to the largest outlier code.
        """
        if np.isnan(grid.min(initial=0.0)):  # min propagates NaN
            raise EncodingError("cannot encode NaN values")
        codes = self._encode_normal_values(grid)
        outliers = self._pair_outlier_masks(grid.reshape(-1, 2), threshold)
        if outliers.size:
            codes[outliers] = self._encode_outlier_values(grid[outliers])
            codes[outliers ^ 1] = self.normal_dtype.identifier_code
        return codes

    def _decode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Decode one-code-per-element arrays back into grid values.

        One contiguous gather covers the (vastly dominant) normal values;
        identifier slots gather 0 (the victim value) for free because the
        normal LUT holds 0 at the identifier code.  The sparse outlier slots
        — the pair partners of the identifiers, found with ``position ^ 1`` —
        are then patched through the outlier LUT.
        """
        identifier = self.normal_dtype.identifier_code
        grid = self._normal_decode_lut[codes]
        victim_pos = np.flatnonzero(codes == identifier)
        if victim_pos.size:
            partner_pos = victim_pos ^ 1
            partner_codes = codes[partner_pos]
            # An identifier partner means an outlier-outlier degenerate pair
            # (both pruned); every other partner slot holds an abfloat code.
            holds_outlier = partner_codes != identifier
            outlier_pos = partner_pos[holds_outlier]
            grid[outlier_pos] = self._outlier_decode_lut[partner_codes[holds_outlier]]
        return grid

    # ------------------------------------------------------------------ #
    # Vectorised fake quantization (grid in → grid out, no bit packing)
    # ------------------------------------------------------------------ #
    def fake_quantize_grid(
        self,
        grid: np.ndarray,
        threshold: float,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply OVP quantization to grid values and return dequantized grid values.

        This is the numerically-equivalent fast path used when simulating
        quantized model inference: victims become 0, outliers snap to the
        nearest representable abfloat magnitude, normal values snap to the
        nearest normal-data-type value.

        ``out``, a C-contiguous float64 array of ``grid``'s shape, receives
        the result instead of a fresh array and may be ``grid`` itself;
        ``scratch`` is the outlier scan's bool buffer (see
        :meth:`_pair_outlier_masks`).  Together they let the quantizer's
        threshold sweep run every candidate in one preallocated workspace.
        """
        grid = np.asarray(grid, dtype=np.float64)
        if out is None:
            out = np.empty(grid.shape)
        elif out.shape != grid.shape or not out.flags.c_contiguous:
            raise EncodingError("out must be a C-contiguous array of the grid's shape")
        if grid.size % 2:
            # The odd trailing element pairs with a zero pad, as in the encoder.
            padded = np.append(grid.ravel(), 0.0)
            out.ravel()[:] = self.fake_quantize_grid(padded, threshold)[:-1]
            return out
        flat = grid.reshape(-1)
        dest = out.reshape(-1)
        # Scan and gather the outliers before the normal pass: ``out`` may
        # alias ``grid``.  Then overwrite only the outlier and victim slots.
        outliers = self._pair_outlier_masks(flat.reshape(-1, 2), threshold, scratch)
        if outliers.size:
            outlier_values = self._quantize_outlier_values(flat[outliers])
        self.normal_dtype.quantize(flat, out=dest)
        if outliers.size:
            dest[outliers] = outlier_values
            dest[outliers ^ 1] = 0.0
        return out

    def _quantize_outlier_values(self, values: np.ndarray) -> np.ndarray:
        """Snap outlier grid values to what the bit-packed stream stores.

        Implemented as a literal encode→decode round trip so the
        fake-quantization path agrees with ``decode_tensor(encode_tensor(x))``
        *by construction* — including Algorithm 2's mantissa rounding at
        exact midpoints, where a plain nearest-value search diverges.
        """
        return self._outlier_decode_lut[self._encode_outlier_values(values)]

    # ------------------------------------------------------------------ #
    # Bit-packed tensor paths
    # ------------------------------------------------------------------ #
    def encode_tensor(
        self, tensor: np.ndarray, scale: float, threshold: float
    ) -> PackedOVPTensor:
        """Encode a real-valued tensor into a memory-aligned byte stream.

        This is the vectorized hot path (mask-based pair classification and
        nibble packing); :meth:`encode_tensor_scalar` keeps the per-pair
        Algorithm 1 loop as the bit-accuracy oracle.
        """
        tensor = np.asarray(tensor, dtype=np.float64)
        if scale <= 0:
            raise EncodingError("scale must be positive")
        grid, padded = self._grid_of(tensor, scale)
        codes = self._encode_grid(grid, threshold)
        return self._packed(self._pack_codes(codes), tensor.shape, scale, padded)

    def encode_tensor_scalar(
        self, tensor: np.ndarray, scale: float, threshold: float
    ) -> PackedOVPTensor:
        """Per-pair scalar encoder (Algorithm 1), kept as the bit oracle."""
        tensor = np.asarray(tensor, dtype=np.float64)
        if scale <= 0:
            raise EncodingError("scale must be positive")
        grid, padded = self._grid_of(tensor, scale)
        codes = np.empty(grid.size, dtype=np.uint8)
        for i in range(0, grid.size, 2):
            c1, c2 = self.encode_pair(grid[i], grid[i + 1], threshold)
            codes[i] = c1
            codes[i + 1] = c2
        return self._packed(self._pack_codes(codes), tensor.shape, scale, padded)

    def encode_tensor_batch(self, tensors, scales, threshold: float, out=None):
        """Encode several tensors in one vectorized pass.

        Each tensor gets its own scale but they share one threshold (in grid
        units) and one trip through the encoder — the per-call overhead
        matters when many small tensors are encoded at once (the KV cache
        seals every newly full K and V page together).  Each tensor divides
        straight into its slice of one preallocated grid (tensors may be
        non-contiguous views), an odd-sized one followed by its own zero pad
        slot as :meth:`encode_tensor` pads it; the whole grid is encoded and
        nibble-packed once, and each result gets a copy of its own byte
        slice, so a page never pins its batch-mates' bytes.  The bytes equal
        per-tensor :meth:`encode_tensor` calls.  ``out``, one array per
        tensor of its shape (the tensor itself may serve), receives what
        :meth:`decode_tensor` returns for that stream, cast to the array's
        dtype, dequantized from the codes in hand.  NaN raises
        :class:`EncodingError`.  Returns one :class:`PackedOVPTensor` per
        input.
        """
        if len(tensors) != len(scales) or (out is not None and len(out) != len(tensors)):
            raise EncodingError("encode_tensor_batch needs one scale and output per tensor")
        if not tensors:
            raise EncodingError("encode_tensor_batch needs at least one tensor")
        tensors = [np.asarray(t, dtype=np.float64) for t in tensors]
        scales = [float(scale) for scale in scales]
        if min(scales) <= 0:
            raise EncodingError("scale must be positive")
        # Tensor j owns grid slots [bounds[j], bounds[j + 1]): its values, then any pad.
        bounds = np.cumsum([0] + [tensor.size + tensor.size % 2 for tensor in tensors])
        slices = list(zip(tensors, scales, bounds, bounds[1:]))
        grid = np.empty(bounds[-1])
        for tensor, scale, start, stop in slices:
            np.divide(tensor, scale, out=grid[start:start + tensor.size].reshape(tensor.shape))
            grid[start + tensor.size:stop] = 0.0
        codes = self._encode_grid(grid, threshold)
        values = None if out is None else self._decode_codes(codes)
        data = self._pack_codes(codes)
        per_byte = 2 if self.normal_dtype.bits == 4 else 1
        packed = []
        for j, (tensor, scale, start, stop) in enumerate(slices):
            if out is not None:
                if out[j].shape != tensor.shape:
                    raise EncodingError("each output must have its tensor's shape")
                view = values[start:start + tensor.size].reshape(tensor.shape)
                np.multiply(view, scale, out=out[j], casting="same_kind")
            stream = data[start // per_byte:stop // per_byte].copy()
            packed.append(self._packed(stream, tensor.shape, scale, stop - start > tensor.size))
        return packed

    def decode_tensor(self, packed: PackedOVPTensor) -> np.ndarray:
        """Decode a packed OVP tensor back into real values (vectorized)."""
        grid = self._decode_codes(self._unpack_codes(packed.data))
        if packed.padded:
            grid = grid[:-1]
        return (grid * packed.scale).reshape(packed.shape)

    def decode_tensor_batch(self, packed_list) -> np.ndarray:
        """Decode same-shape packed tensors in one vectorized pass.

        The per-call overhead of :meth:`decode_tensor` dominates when many
        small tensors are decoded at once (the KV-cache attend path decodes
        every sealed page of a sequence per step), so the byte streams are
        concatenated and run through the unpack/LUT machinery together.
        Returns an array of shape ``(len(packed_list), *shape)``.

        All tensors must share this codec's dtype configuration and one
        common shape.
        """
        if not packed_list:
            raise EncodingError("decode_tensor_batch needs at least one tensor")
        first = packed_list[0]
        for packed in packed_list:
            if packed.shape != first.shape:
                raise EncodingError("decode_tensor_batch requires identical shapes")
            if (
                packed.normal_dtype != self.normal_dtype.name
                or packed.abfloat_name != self.abfloat_type.name
                or packed.bias != self.bias
            ):
                raise EncodingError("packed tensor does not match this codec")
        codes = self._unpack_codes(np.concatenate([packed.data for packed in packed_list]))
        # Equal shapes mean equal (padded) stream lengths, so every stream
        # boundary falls on a pair boundary and one decode pass is safe.
        grid = self._decode_codes(codes).reshape(len(packed_list), -1)
        if first.padded:
            grid = grid[:, :-1]
        scales = np.array([packed.scale for packed in packed_list], dtype=np.float64)
        return (grid * scales[:, None]).reshape((len(packed_list),) + tuple(first.shape))

    def decode_tensor_scalar(self, packed: PackedOVPTensor) -> np.ndarray:
        """Per-pair scalar decoder, kept as the bit oracle."""
        codes = self._unpack_codes(packed.data)
        grid = np.empty(codes.size, dtype=np.float64)
        for i in range(0, codes.size, 2):
            v1, v2 = self.decode_pair(int(codes[i]), int(codes[i + 1]))
            grid[i] = v1
            grid[i + 1] = v2
        if packed.padded:
            grid = grid[:-1]
        return (grid * packed.scale).reshape(packed.shape)

    # ------------------------------------------------------------------ #
    # Packing helpers shared by the scalar and vectorized paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _grid_of(tensor: np.ndarray, scale: float) -> Tuple[np.ndarray, bool]:
        """Scale a tensor onto the integer grid, padding odd lengths.

        ``scale == 1.0`` skips the division, which would only copy: callers
        read the grid and never write it.
        """
        grid = tensor.ravel() if scale == 1.0 else tensor.ravel() / scale
        padded = False
        if grid.size % 2 == 1:
            grid = np.concatenate([grid, np.zeros(1)])
            padded = True
        return grid, padded

    def _pack_codes(self, codes: np.ndarray) -> np.ndarray:
        """Nibble-pack (4-bit) or pass through (8-bit) a code stream."""
        if self.normal_dtype.bits == 4:
            return (codes[0::2] << 4) | codes[1::2]
        return codes

    def _packed(
        self, data: np.ndarray, shape: Tuple[int, ...], scale: float, padded: bool
    ) -> PackedOVPTensor:
        """Wrap a packed byte stream with this codec's decode metadata."""
        return PackedOVPTensor(
            data=data,
            shape=tuple(shape),
            scale=float(scale),
            normal_dtype=self.normal_dtype.name,
            abfloat_name=self.abfloat_type.name,
            bias=self.bias,
            padded=padded,
        )

    def _unpack_codes(self, data: np.ndarray) -> np.ndarray:
        """Expand a byte stream back into one code per element."""
        if self.normal_dtype.bits == 4:
            codes = np.empty(data.size * 2, dtype=np.uint8)
            codes[0::2] = data >> 4
            codes[1::2] = data & 0x0F
            return codes
        return data
