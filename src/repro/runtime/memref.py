"""MemRef descriptors: the Fig. 3 struct, backed by numpy storage.

A descriptor is ``(allocated, aligned, offset, sizes[N], strides[N])``
plus a simulated base address so the cache model sees realistic line
addresses.  Subviews share storage and adjust offset/sizes, exactly like
``memref.subview`` results.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class MemRefDescriptor:
    """A strided N-d buffer reference over a flat numpy allocation."""

    def __init__(
        self,
        allocated: np.ndarray,
        offset: int,
        sizes: Sequence[int],
        strides: Sequence[int],
        base_address: int = 0,
        name: str = "memref",
    ):
        if allocated.ndim != 1:
            raise ValueError("backing storage must be a flat array")
        self.allocated = allocated
        self.aligned = allocated
        self.offset = int(offset)
        self.sizes: Tuple[int, ...] = tuple(int(s) for s in sizes)
        self.strides: Tuple[int, ...] = tuple(int(s) for s in strides)
        self.base_address = int(base_address)
        self.name = name
        if len(self.sizes) != len(self.strides):
            raise ValueError("sizes/strides rank mismatch")
        # Hot-path metadata as plain attributes (the staging kernels
        # read these once per copied tile).
        self.rank = len(self.sizes)
        self.dtype = allocated.dtype
        self.itemsize = allocated.dtype.itemsize
        total = 1
        for size in self.sizes:
            total *= size
        self._num_elements = total

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_numpy(array: np.ndarray, base_address: int = 0,
                   name: str = "memref") -> "MemRefDescriptor":
        """Wrap a (contiguous) numpy array as a rank-N memref."""
        contiguous = np.ascontiguousarray(array)
        flat = contiguous.reshape(-1)
        strides = [1] * contiguous.ndim
        for axis in range(contiguous.ndim - 2, -1, -1):
            strides[axis] = strides[axis + 1] * contiguous.shape[axis + 1]
        return MemRefDescriptor(
            flat, 0, contiguous.shape, strides, base_address, name
        )

    # -- shape queries ----------------------------------------------------------
    def num_elements(self) -> int:
        return self._num_elements

    def num_bytes(self) -> int:
        return self._num_elements * self.itemsize

    def is_contiguous(self) -> bool:
        expected = 1
        for size, stride in zip(reversed(self.sizes), reversed(self.strides)):
            if size != 1 and stride != expected:
                return False
            expected *= size
        return True

    def innermost_unit_stride(self) -> bool:
        return self.rank == 0 or self.strides[-1] == 1

    # -- addressing ---------------------------------------------------------
    def linear_index(self, indices: Sequence[int]) -> int:
        if len(indices) != self.rank:
            raise IndexError(
                f"{self.name}: rank-{self.rank} memref indexed with "
                f"{len(indices)} subscripts"
            )
        linear = self.offset
        for index, size, stride in zip(indices, self.sizes, self.strides):
            if not 0 <= index < size:
                raise IndexError(
                    f"{self.name}: index {index} out of bounds for size {size}"
                )
            linear += index * stride
        return linear

    def element_address(self, indices: Sequence[int]) -> int:
        """Simulated byte address of one element (for the cache model)."""
        return self.base_address + self.linear_index(indices) * self.itemsize

    # -- element access ---------------------------------------------------------
    def load(self, indices: Sequence[int]):
        return self.allocated[self.linear_index(indices)]

    def store(self, value, indices: Sequence[int]) -> None:
        self.allocated[self.linear_index(indices)] = value

    # -- views ------------------------------------------------------------------
    def view(self) -> np.ndarray:
        """A numpy view with this descriptor's shape/strides (no copy)."""
        if self.rank == 0:
            return self.allocated[self.offset:self.offset + 1].reshape(())
        itemsize = self.itemsize
        byte_strides = tuple(s * itemsize for s in self.strides)
        try:
            # Direct construction is several times cheaper than
            # as_strided and views are built once per staged tile.
            return np.ndarray(self.sizes, self.dtype,
                              self.allocated.data, self.offset * itemsize,
                              byte_strides)
        except (ValueError, TypeError):
            # Exotic layouts (e.g. negative strides) fall back to the
            # unchecked construction.
            return np.lib.stride_tricks.as_strided(
                self.allocated[self.offset:],
                shape=self.sizes,
                strides=byte_strides,
                writeable=True,
            )

    def subview(self, offsets: Sequence[int],
                sizes: Sequence[int],
                strides: Optional[Sequence[int]] = None,
                name: Optional[str] = None) -> "MemRefDescriptor":
        """A window sharing this descriptor's storage."""
        if len(offsets) != self.rank or len(sizes) != self.rank:
            raise IndexError(
                f"{self.name}: subview offsets/sizes must have rank "
                f"{self.rank}"
            )
        relative = tuple(strides) if strides else (1,) * self.rank
        new_offset = self.offset
        new_strides = []
        for offset, rel, size, full, stride in zip(
            offsets, relative, sizes, self.sizes, self.strides
        ):
            if offset < 0 or offset + (size - 1) * rel >= full + rel - 1:
                if offset < 0 or offset + size * rel > full:
                    raise IndexError(
                        f"{self.name}: subview [{offset}:{offset}+{size}*"
                        f"{rel}] exceeds dimension of size {full}"
                    )
            new_offset += offset * stride
            new_strides.append(stride * rel)
        # Subviews are built once per staged tile; skip __init__'s
        # re-validation (the loop above already bounds-checked).
        sub = MemRefDescriptor.__new__(MemRefDescriptor)
        sub.allocated = self.allocated
        sub.aligned = self.allocated
        sub.offset = new_offset
        sub.sizes = tuple(sizes)
        sub.strides = tuple(new_strides)
        sub.base_address = self.base_address
        sub.name = name or f"{self.name}.sub"
        sub.rank = self.rank
        sub.dtype = self.dtype
        sub.itemsize = self.itemsize
        total = 1
        for size in sub.sizes:
            total *= size
        sub._num_elements = total
        return sub

    def __repr__(self) -> str:
        return (
            f"MemRefDescriptor({self.name}, sizes={self.sizes}, "
            f"strides={self.strides}, offset={self.offset}, "
            f"dtype={self.dtype})"
        )
