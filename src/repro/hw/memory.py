"""Device memory: buffers, storage classes, UVA peer access.

Buffers are backed by real NumPy arrays so the simulated kernels
perform the actual Jacobi arithmetic — every communication-protocol
variant is checked for numerical correctness against a single-domain
reference, not just timed.

Storage classes mirror the paper's §5.3.3: ordinary ``GLOBAL`` device
memory versus ``SYMMETRIC`` (NVSHMEM PGAS heap) memory, which is the
only storage remote-memory operations may target.  ``HOST`` exists for
staged baseline copies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["DeviceBuffer", "MemoryManager", "Storage"]


class Storage(enum.Enum):
    """Where an allocation lives (paper §5.3.3 storage types)."""

    HOST = "host"
    GLOBAL = "gpu_global"       #: cudaMalloc-style device memory
    SYMMETRIC = "gpu_nvshmem"   #: nvshmem_malloc symmetric heap


@dataclass(eq=False)
class DeviceBuffer:
    """A typed allocation on one device.

    ``data`` is the backing NumPy array.  Identity (not value) equality
    is intentional: buffers are handles.
    """

    device: int
    name: str
    data: np.ndarray
    storage: Storage = Storage.GLOBAL

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeviceBuffer {self.name} dev={self.device} {self.shape} "
            f"{self.dtype} {self.storage.value}>"
        )


class PeerAccessError(RuntimeError):
    """Raised on a peer access that was never enabled (UVA discipline)."""


class MemoryManager:
    """Tracks allocations and peer-access permissions for one node.

    Models the constraints the real stack enforces:

    - capacity accounting per device (allocation beyond HBM raises),
    - direct peer load/store requires ``enable_peer_access`` first
      (``cudaDeviceEnablePeerAccess``) unless the buffer is symmetric.
    """

    def __init__(self, num_gpus: int, capacity_bytes: int | None = None) -> None:
        if num_gpus <= 0:
            raise ValueError("num_gpus must be positive")
        self.num_gpus = num_gpus
        self.capacity_bytes = capacity_bytes
        self._used = [0] * num_gpus
        self._buffers: list[DeviceBuffer] = []
        self._peer_ok: set[tuple[int, int]] = set()

    # -- allocation ---------------------------------------------------------

    def alloc(
        self,
        device: int,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        storage: Storage = Storage.GLOBAL,
        fill: float | None = 0.0,
        *,
        data: np.ndarray | None = None,
    ) -> DeviceBuffer:
        """Allocate a buffer on ``device``; zero-filled by default.  With
        ``data`` the buffer adopts that array instead, which must already
        have ``shape`` and ``dtype``: nothing is allocated or filled, but
        the bytes count against the device's capacity all the same."""
        self._check_device(device)
        if data is None:
            data = (np.empty(shape, dtype=dtype) if fill is None
                    else np.full(shape, fill, dtype=dtype))
        elif (data.shape != ((shape,) if isinstance(shape, int) else tuple(shape))
              or data.dtype != np.dtype(dtype)):
            raise ValueError(
                f"device {device}: buffer {name!r} cannot adopt a {data.dtype} "
                f"array of shape {data.shape} as {np.dtype(dtype)} {shape}")
        if self.capacity_bytes is not None:
            if self._used[device] + data.nbytes > self.capacity_bytes:
                raise MemoryError(
                    f"device {device}: allocation of {data.nbytes} bytes exceeds "
                    f"capacity ({self._used[device]}/{self.capacity_bytes} used)"
                )
        buf = DeviceBuffer(device=device, name=name, data=data, storage=storage)
        self._used[device] += data.nbytes
        self._buffers.append(buf)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer (double-free raises)."""
        try:
            self._buffers.remove(buf)
        except ValueError:
            raise RuntimeError(f"double free or foreign buffer: {buf.name}") from None
        self._used[buf.device] -= buf.nbytes

    def used_bytes(self, device: int) -> int:
        self._check_device(device)
        return self._used[device]

    def buffers_on(self, device: int) -> Iterator[DeviceBuffer]:
        self._check_device(device)
        return (b for b in self._buffers if b.device == device)

    # -- peer access (UVA) ----------------------------------------------------

    def enable_peer_access(self, src: int, dst: int) -> None:
        """Allow device ``src`` to directly load/store ``dst`` memory."""
        self._check_device(src)
        self._check_device(dst)
        self._peer_ok.add((src, dst))

    def enable_all_peer_access(self) -> None:
        for a in range(self.num_gpus):
            for b in range(self.num_gpus):
                if a != b:
                    self.enable_peer_access(a, b)

    def check_peer_access(self, accessor: int, buf: DeviceBuffer) -> None:
        """Validate a direct device-side access to ``buf`` by ``accessor``.

        Symmetric-heap buffers are always remotely accessible (that is
        the PGAS contract); global memory needs peer access enabled.
        """
        if accessor == buf.device or buf.storage is Storage.SYMMETRIC:
            return
        if (accessor, buf.device) not in self._peer_ok:
            raise PeerAccessError(
                f"device {accessor} has no peer access to device {buf.device} "
                f"buffer {buf.name!r} (storage={buf.storage.value})"
            )

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_gpus:
            raise ValueError(f"device {device} out of range (num_gpus={self.num_gpus})")
