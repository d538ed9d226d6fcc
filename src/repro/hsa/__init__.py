"""Header Space Analysis — the paper's logical verification engine.

A from-scratch implementation of the static data-plane analysis of
Kazemian et al. (NSDI'12), which the paper names as the mechanism behind
RVaaS's logical verification (§IV-A2: "the RVaaS controller may perform
Header Space Analysis, or simply emulate the network").

Packets are points in {0,1}^L for the packed header layout
(:mod:`~repro.hsa.layout`); sets of packets are unions of ternary
wildcard expressions (:mod:`~repro.hsa.wildcard`,
:mod:`~repro.hsa.headerspace`); switches become transfer functions
derived from their flow tables with exact priority shadowing
(:mod:`~repro.hsa.transfer`); and reachability / path / loop analysis
propagates header spaces over the wiring plan
(:mod:`~repro.hsa.reachability`).

The production kernel is the fast path: indexed rule classifiers,
trusted low-overhead wildcard construction and iterative worklist
propagation.  The original naive kernel is retained in
:mod:`~repro.hsa.reference` as the oracle for differential testing.
"""

from repro.hsa.atoms import (
    GLOBAL_ATOM_TABLE,
    AtomNetwork,
    AtomSpace,
    AtomTable,
    MatrixRow,
    ReachabilityMatrix,
)
from repro.hsa.headerspace import HeaderSpace
from repro.hsa.layout import FIELD_LAYOUT, HEADER_BITS, field_slice, pack_headers
from repro.hsa.reachability import (
    DropZone,
    LoopReport,
    ReachabilityAnalyzer,
    ReachablePath,
    ReachableZone,
    build_reachability_matrix,
)
from repro.hsa.reference import (
    ReferenceReachabilityAnalyzer,
    ReferenceSwitchTransferFunction,
    reference_network_tf,
)
from repro.hsa.transfer import KernelStats, SwitchTransferFunction, TransferRule
from repro.hsa.network_tf import NetworkTransferFunction
from repro.hsa.wildcard import Wildcard

__all__ = [
    "AtomNetwork",
    "AtomSpace",
    "AtomTable",
    "DropZone",
    "FIELD_LAYOUT",
    "GLOBAL_ATOM_TABLE",
    "HEADER_BITS",
    "HeaderSpace",
    "KernelStats",
    "LoopReport",
    "MatrixRow",
    "NetworkTransferFunction",
    "ReachabilityAnalyzer",
    "ReachabilityMatrix",
    "ReachablePath",
    "ReachableZone",
    "build_reachability_matrix",
    "ReferenceReachabilityAnalyzer",
    "ReferenceSwitchTransferFunction",
    "SwitchTransferFunction",
    "TransferRule",
    "Wildcard",
    "field_slice",
    "pack_headers",
    "reference_network_tf",
]
