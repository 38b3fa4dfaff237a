"""Code generation backends.

- :mod:`repro.sdfg.codegen.cuda_text` — pseudo-CUDA source rendering,
  faithful to the thesis listings (5.5/5.6); used by tests and docs.
- :mod:`repro.sdfg.codegen.executor` — compiles the SDFG into host /
  device processes for the multi-GPU simulator, with real NumPy data,
  so generated programs are validated end-to-end and timed.
- :mod:`repro.sdfg.codegen.fastpath` — compiled tasklet plans and the
  map-specialization pass behind the executor's data path.
"""

from repro.sdfg.codegen.cuda_text import generate_cuda
from repro.sdfg.codegen.executor import ExecutionReport, SDFGExecutor
from repro.sdfg.codegen.fastpath import MapMode, specialize_maps

__all__ = [
    "ExecutionReport",
    "MapMode",
    "SDFGExecutor",
    "generate_cuda",
    "specialize_maps",
]
