"""Normal-value data types used by the OVP encoding (paper Table 3).

OliVe quantizes the *normal* (non-outlier) values of a tensor with a
conventional low-bit data type.  The paper supports three of them:

=========  =============================================  =====================
data type  representable values                           outlier identifier
=========  =============================================  =====================
``int4``   0, ±1, ±2, ±3, ±4, ±5, ±6, ±7                  ``1000₂``  (was −8)
``flint4`` 0, ±1, ±2, ±3, ±4, ±6, ±8, ±16                 ``1000₂``  (was −0)
``int8``   0, ±1, …, ±126, ±127                           ``10000000₂`` (was −128)
=========  =============================================  =====================

One bit pattern of each type is sacrificed to act as the *outlier identifier*:
it never encodes a normal value, so a decoder that sees it knows the adjacent
nibble/byte holds an outlier encoded with :mod:`repro.core.abfloat`.

All types here operate on the *integer grid*, i.e. on values that have already
been divided by the tensor scale factor.  The tensor-level scale search lives
in :mod:`repro.core.quantizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.errors import EncodingError, DecodingError

__all__ = [
    "NormalDataType",
    "Int4",
    "Flint4",
    "Int8",
    "INT4",
    "FLINT4",
    "INT8",
    "NORMAL_DTYPES",
    "get_normal_dtype",
]


@dataclass(frozen=True)
class NormalDataType:
    """A fixed-width data type for normal (non-outlier) values.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"int4"``.
    bits:
        Storage width in bits (4 or 8 in the paper).
    values:
        Sorted array of representable values on the integer grid, with the
        outlier-identifier pattern already excluded.
    identifier_code:
        The reserved bit pattern (as an unsigned integer of ``bits`` width)
        that marks the victim slot of an outlier-victim pair.
    code_of_value:
        Mapping from representable value to its bit pattern.
    value_of_code:
        Inverse of ``code_of_value``.
    """

    name: str
    bits: int
    values: np.ndarray
    identifier_code: int
    code_of_value: Dict[float, int] = field(repr=False)
    value_of_code: Dict[int, float] = field(repr=False)
    #: True when ``values`` are the consecutive integers ``-max … max`` and
    #: each value's code is its two's-complement bit pattern (``int4``,
    #: ``int8``).  :meth:`quantize` then rounds in closed form, and the OVP
    #: encoder turns a quantized value into its code by an integer cast and
    #: a ``bits``-wide mask instead of a table lookup.
    uniform_int_grid: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        """Largest representable magnitude (e.g. 7 for ``int4``)."""
        return float(np.max(np.abs(self.values)))

    @property
    def num_codes(self) -> int:
        """Total number of bit patterns, including the identifier."""
        return 1 << self.bits

    # ------------------------------------------------------------------ #
    # Grid quantization
    # ------------------------------------------------------------------ #
    def quantize(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Round ``x`` (already on the integer grid) to the nearest value.

        Values beyond the representable range saturate to ``±max_value``.
        Exact midpoints round to the lower neighbouring value.  ``out``, a
        float64 array of ``x``'s shape, receives the result and is returned
        instead of a fresh array; it may be ``x`` itself.
        """
        x = np.asarray(x, dtype=np.float64)
        if self.uniform_int_grid:
            # Consecutive-integer grid: nearest-with-ties-to-lower is
            # ``ceil(x - 0.5)`` in closed form, which skips the searchsorted
            # walk below — the dominant cost of the quantizer threshold sweep.
            # One buffer serves all three steps.
            max_value = float(self.values[-1])
            out = np.subtract(x, 0.5, out=np.empty_like(x) if out is None else out)
            np.ceil(out, out=out)
            return np.clip(out, -max_value, max_value, out=out)
        sorted_vals = self.values
        idx = np.searchsorted(sorted_vals, x)
        idx = np.clip(idx, 1, len(sorted_vals) - 1)
        left = sorted_vals[idx - 1]
        right = sorted_vals[idx]
        nearest = np.where(np.abs(x - left) <= np.abs(right - x), left, right)
        if out is None:
            return nearest
        out[...] = nearest
        return out

    def quantization_error(self, x: np.ndarray) -> np.ndarray:
        """Absolute error introduced by :meth:`quantize`."""
        return np.abs(np.asarray(x, dtype=np.float64) - self.quantize(x))

    # ------------------------------------------------------------------ #
    # Bit-level encode/decode
    # ------------------------------------------------------------------ #
    def encode(self, value: float) -> int:
        """Return the bit pattern of a representable normal value."""
        key = float(value)
        if key not in self.code_of_value:
            raise EncodingError(
                f"{value!r} is not representable by {self.name}; "
                "call quantize() first"
            )
        return self.code_of_value[key]

    def decode(self, code: int) -> float:
        """Return the value of a bit pattern.

        Raises
        ------
        DecodingError
            If ``code`` is the outlier identifier or out of range.
        """
        if code == self.identifier_code:
            raise DecodingError(
                f"code {code:#x} is the outlier identifier of {self.name}"
            )
        if code not in self.value_of_code:
            raise DecodingError(f"code {code:#x} is not a valid {self.name} code")
        return self.value_of_code[code]

    def encode_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode` over an array of representable values."""
        flat = np.asarray(values, dtype=np.float64).ravel()
        codes = np.empty(flat.shape, dtype=np.uint32)
        for i, v in enumerate(flat):
            codes[i] = self.encode(float(v))
        return codes.reshape(np.asarray(values).shape)

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decode` over an array of codes."""
        flat = np.asarray(codes).ravel()
        values = np.empty(flat.shape, dtype=np.float64)
        for i, c in enumerate(flat):
            values[i] = self.decode(int(c))
        return values.reshape(np.asarray(codes).shape)

    def is_identifier(self, code: int) -> bool:
        """True when ``code`` is the reserved outlier identifier."""
        return int(code) == self.identifier_code


def _twos_complement_code(value: int, bits: int) -> int:
    """Two's complement representation of ``value`` as an unsigned int."""
    mask = (1 << bits) - 1
    return value & mask


def _build_int_type(name: str, bits: int) -> NormalDataType:
    """Build a signed integer type with the minimum value reserved."""
    identifier = 1 << (bits - 1)  # e.g. 1000₂ for 4-bit, 10000000₂ for 8-bit
    max_mag = (1 << (bits - 1)) - 1
    values = np.arange(-max_mag, max_mag + 1, dtype=np.float64)
    code_of_value = {
        float(v): _twos_complement_code(int(v), bits) for v in values
    }
    value_of_code = {c: v for v, c in code_of_value.items()}
    return NormalDataType(
        name=name,
        bits=bits,
        values=values,
        identifier_code=identifier,
        code_of_value=code_of_value,
        value_of_code=value_of_code,
        uniform_int_grid=True,
    )


def _build_flint4() -> NormalDataType:
    """Build ANT's 4-bit ``flint`` type.

    flint mixes float-like coverage of large magnitudes with int-like coverage
    near zero (values from paper Table 3).  We use a sign-magnitude layout:
    the top bit is the sign and the low three bits index the magnitude table.
    The pattern ``1000₂`` would be −0, which is unused by flint and therefore
    becomes the outlier identifier for free (paper Section 3.2).
    """
    magnitudes = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0]
    code_of_value: Dict[float, int] = {}
    for idx, mag in enumerate(magnitudes):
        code_of_value[float(mag)] = idx  # sign bit 0
        if mag != 0.0:
            code_of_value[float(-mag)] = 0b1000 | idx  # sign bit 1
    value_of_code = {c: v for v, c in code_of_value.items()}
    values = np.array(sorted(code_of_value.keys()), dtype=np.float64)
    return NormalDataType(
        name="flint4",
        bits=4,
        values=values,
        identifier_code=0b1000,
        code_of_value=code_of_value,
        value_of_code=value_of_code,
    )


INT4: NormalDataType = _build_int_type("int4", 4)
INT8: NormalDataType = _build_int_type("int8", 8)
FLINT4: NormalDataType = _build_flint4()

#: Convenience aliases used by the quantization framework.
Int4 = INT4
Flint4 = FLINT4
Int8 = INT8

NORMAL_DTYPES: Dict[str, NormalDataType] = {
    "int4": INT4,
    "flint4": FLINT4,
    "int8": INT8,
}


def get_normal_dtype(name: str) -> NormalDataType:
    """Look up a normal-value data type by name (``int4``/``flint4``/``int8``)."""
    try:
        return NORMAL_DTYPES[name]
    except KeyError as exc:
        raise EncodingError(
            f"unknown normal data type {name!r}; "
            f"expected one of {sorted(NORMAL_DTYPES)}"
        ) from exc
