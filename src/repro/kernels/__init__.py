"""PangenomicsBench: the benchmark suite's kernels.

Importing this package registers all kernels:

>>> from repro.kernels import create_kernel, kernel_names
>>> kernel_names()
['gbv', 'gbwt', 'gssw', 'gwfa-cr', 'gwfa-lr', 'pgsgd', 'ssw', 'tc', 'tsu']
"""

from repro.kernels.base import (
    BACKENDS,
    GPU,
    KERNEL_CLASSES,
    KERNEL_REGISTRY,
    SCALAR,
    VECTORIZED,
    Kernel,
    KernelResult,
    create_kernel,
    kernel_backends,
    kernel_names,
    register,
    resolve_backend,
)

# Importing the kernel modules registers them.
from repro.kernels.gbv_kernel import GBVKernel, extract_gbv_inputs
from repro.kernels.gbwt_kernel import GBWTKernel
from repro.kernels.gssw_kernel import GSSWKernel, extract_gssw_inputs
from repro.kernels.gwfa_kernel import (
    GWFAChromosomeKernel,
    GWFALongReadKernel,
    extract_gwfa_inputs,
)
from repro.kernels.pgsgd_kernel import PGSGDKernel
from repro.kernels.ssw_kernel import SSWKernel, extract_ssw_inputs
from repro.kernels.tc_kernel import TCKernel
from repro.kernels.tsu_kernel import TSUKernel

#: The paper's eight suite kernels (Table 3 order-ish).
SUITE_KERNELS = ("gssw", "gbwt", "gbv", "gwfa-lr", "gwfa-cr", "tc", "pgsgd", "tsu")
#: The seven CPU kernel configurations characterized in Figures 6-8 /
#: Table 6: six distinct kernels, with GWFA contributing two entries
#: (its long-read and chromosome input classes are profiled separately).
CPU_KERNELS = ("gssw", "gbv", "gbwt", "gwfa-cr", "gwfa-lr", "pgsgd", "tc")

__all__ = [
    "BACKENDS", "GPU", "KERNEL_CLASSES", "KERNEL_REGISTRY", "SCALAR",
    "VECTORIZED", "Kernel", "KernelResult", "create_kernel",
    "kernel_backends", "kernel_names", "register", "resolve_backend",
    "GBVKernel", "extract_gbv_inputs",
    "GBWTKernel",
    "GSSWKernel", "extract_gssw_inputs",
    "GWFAChromosomeKernel", "GWFALongReadKernel", "extract_gwfa_inputs",
    "PGSGDKernel",
    "SSWKernel", "extract_ssw_inputs",
    "TCKernel",
    "TSUKernel",
    "SUITE_KERNELS", "CPU_KERNELS",
]
