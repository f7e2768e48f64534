"""Synthetic SPEC-like workloads (see DESIGN.md for the substitution).

Importing this package registers all sixteen workloads in Table 2
order; use :func:`repro.workloads.all_workloads` to enumerate them.
"""

from repro.workloads import (  # noqa: F401  (registration side effects)
    go,
    m88ksim,
    ijpeg,
    gzip_comp,
    gzip_decomp,
    vpr_place,
    gcc,
    mcf,
    crafty,
    parser,
    perlbmk,
    gap,
    bzip2_comp,
    bzip2_decomp,
    twolf,
)
from repro.workloads.base import (
    UnknownWorkload,
    Workload,
    all_workloads,
    get_workload,
)

__all__ = ["UnknownWorkload", "Workload", "all_workloads", "get_workload"]
