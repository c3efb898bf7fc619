"""A minimal, forward-only neural-network module system built on NumPy.

The OliVe paper evaluates post-training quantization, so the substrate only
needs inference.  This module system intentionally mirrors the small subset of
the ``torch.nn`` API the quantization framework relies on:

* :class:`Parameter` — a named, mutable weight tensor;
* :class:`Module` — a container that tracks parameters and child modules,
  supports recursive traversal (``named_parameters``, ``named_modules``),
  child replacement (used to swap ``Linear`` for its fake-quantized wrapper)
  and a whole-tree dtype cast (``astype``, used by the serving repository).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable/quantizable tensor with a stable identity."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.data.size)

    def copy_(self, values: np.ndarray) -> None:
        """Bind ``values`` as a new array, preserving dtype and shape.

        The old array is not written, so whatever else holds it (a fused
        Q/K/V operand this parameter viewed, say) keeps its values.
        """
        values = np.asarray(values, dtype=self.data.dtype)
        if values.shape != self.data.shape:
            raise ValueError(
                f"shape mismatch in copy_: {values.shape} vs {self.data.shape}"
            )
        self.data = values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; the base class keeps registries so the whole tree can be
    traversed generically.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    # ------------------------------------------------------------------ #
    # Attribute tracking
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        """Immediate child modules."""
        yield from self._modules.items()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """All modules in the tree, including ``self`` (depth-first)."""
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """All parameters in the tree with dotted names."""
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        """Flat list of all parameters."""
        return [p for _, p in self.named_parameters()]

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters from a :meth:`state_dict`-style mapping."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            param.copy_(state[name])

    def astype(self, dtype) -> "Module":
        """Cast every parameter in the tree to ``dtype``; returns ``self``.

        Parameters get new arrays, so a Q/K/V projection stops viewing its
        fused storage and the next fused call fuses the cast rows.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
        return self

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the tree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Child replacement (used by the quantization framework)
    # ------------------------------------------------------------------ #
    def get_submodule(self, dotted: str) -> "Module":
        """Fetch a descendant module by dotted path."""
        module: Module = self
        if not dotted:
            return module
        for part in dotted.split("."):
            module = module._modules[part]
        return module

    def set_submodule(self, dotted: str, new_module: "Module") -> None:
        """Replace a descendant module by dotted path."""
        if not dotted:
            raise ValueError("cannot replace the root module")
        *parents, leaf = dotted.split(".")
        parent = self.get_submodule(".".join(parents))
        setattr(parent, leaf, new_module)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        """Apply ``fn`` to every module in the tree (children first)."""
        for _, child in self._modules.items():
            child.apply(fn)
        fn(self)
        return self

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
