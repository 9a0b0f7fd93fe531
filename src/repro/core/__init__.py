"""FedCross: the paper's multi-model cross-aggregation framework.

The server maintains K *middleware models*. Every round (Algorithm 1):

1. sample K clients and shuffle the assignment (line 5 — so each
   middleware model meets fresh clients);
2. each client locally trains its assigned middleware model;
3. for every uploaded model, ``CoModelSel`` picks a collaborative model
   (in-order / highest-similarity / lowest-similarity — Section
   III-B1);
4. ``CrossAggr`` fuses them: ``w_i = alpha * v_i + (1 - alpha) * v_co``
   (Section III-B2);
5. a deployment-only global model is the plain average of the
   middleware pool (``GlobalModelGen``, Section III-B3).

Two acceleration heuristics (Section III-D) are provided: propeller
models (multiple in-order collaborators early on) and dynamic alpha
(ramping alpha from 0.5 to its target).
"""

from repro.core.selection import CoModelSel, select_in_order
from repro.core.acceleration import (
    DynamicAlphaSchedule,
    propeller_index_matrix,
    propeller_indices,
)
from repro.core.fedcross import FedCrossServer
from repro.core.gram import GramTracker, cosine_from_gram
from repro.core.pool import PoolBuffer
from repro.core.storage import (
    DenseStorage,
    MemmapStorage,
    PoolStorage,
    ShardedStorage,
    available_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "CoModelSel",
    "select_in_order",
    "DynamicAlphaSchedule",
    "propeller_index_matrix",
    "propeller_indices",
    "FedCrossServer",
    "GramTracker",
    "PoolBuffer",
    "cosine_from_gram",
    "PoolStorage",
    "DenseStorage",
    "MemmapStorage",
    "ShardedStorage",
    "register_backend",
    "resolve_backend",
    "available_backends",
]
