"""Deliberately buggy stencil variants for sanitizer validation.

These are the dynamic detector's positive controls: known-racy
programs the sanitizer *must* flag.  They are intentionally NOT in the
global variant registry — the chaos matrix and benchmark sweeps must
never run them — and are reachable only through
``python -m repro.sanitize`` and the sanitizer tests via
:data:`SEEDED_VARIANTS`.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.core import GridBarrier
from repro.runtime.kernel import DeviceKernelContext
from repro.stencil.variants.cpufree import CPUFree

__all__ = ["RacyUnsignaled", "SEEDED_VARIANTS"]


class RacyUnsignaled(CPUFree):
    """CPU-Free stencil with the §4.1.1 semaphore protocol removed.

    Two deliberate bugs relative to :class:`CPUFree`:

    * boundary groups never ``signal_wait_until`` — they read halo
      rows whether or not the neighbor's layer has landed;
    * halos are pushed with plain ``putmem_nbi`` (no signal), so
      nothing ever publishes the delivery to the reader.

    Every halo delivery therefore races with the neighbor's reads of
    (and later deliveries into) the same rows — exactly the
    missing-signal bug class the detector exists for.
    """

    name = "racy_unsignaled"

    def _boundary_body(self, rank: int, sides: tuple[str, ...], plan):
        neighbors = self.neighbors(rank)
        steps = [(side, neighbors.get(side), self.boundary_layer(rank, side))
                 for side in sides]

        def body(dev: DeviceKernelContext, grid: GridBarrier) -> Generator[Any, Any, None]:
            nv = self.nvshmem.device(rank, lane=dev.lane)
            for it in range(1, self.config.iterations + 1):
                for side, nbr, layer in steps:
                    # BUG (deliberate): no signal_wait_until — the halo read
                    # below may see a stale or in-flight layer
                    yield from self.compute_layers(
                        dev, rank, it, layer, layer + 1,
                        fraction_of_device=plan.boundary_fraction_per_side,
                        name=f"boundary_{side}",
                    )
                    if nbr is not None:
                        dst = self.sym[self.write_parity(it)] if self.config.with_data else None
                        # BUG (deliberate): unsignaled put — the destination
                        # halo is read next iteration with no ordering edge
                        yield from nv.putmem_nbi(
                            dst,
                            self.halo_layer(nbr, self.opposite(side)),
                            self.boundary_values(rank, it, side),
                            dest_pe=nbr,
                            nbytes=self.halo_nbytes,
                            name=f"halo_{side}",
                        )
                yield from grid.wait()

        return body


#: seeded-bug registry, parallel to ``stencil.base.VARIANTS`` but never
#: merged into it
SEEDED_VARIANTS: dict[str, type[CPUFree]] = {
    RacyUnsignaled.name: RacyUnsignaled,
}
