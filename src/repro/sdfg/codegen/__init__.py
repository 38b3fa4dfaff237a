"""Code generation backends.

- :mod:`repro.sdfg.codegen.cuda_text` — pseudo-CUDA source rendering,
  faithful to the thesis listings (5.5/5.6); used by tests and docs.
- :mod:`repro.sdfg.codegen.executor` — compiles the SDFG into host /
  device processes for the multi-GPU simulator, with real NumPy data,
  so generated programs are validated end-to-end and timed.
"""

from repro.sdfg.codegen.cuda_text import generate_cuda
from repro.sdfg.codegen.executor import ExecutionReport, SDFGExecutor

__all__ = [
    "ExecutionReport",
    "SDFGExecutor",
    "generate_cuda",
]
