"""Rough Cayley graphs of compactly generated groups at desk scale.

Build quasi-lattices in concrete metric models (integer lattices, free
groups, the discrete Heisenberg group, Euclidean space, the hyperbolic
upper half-plane carrying the affine group), connect them into rough
Cayley graphs, and certify empirically that the constructions behave:
quasi-isometry inequalities, quasi-action axiom defects, orbit-map
constants, shared growth type, and Folner boundary ratios.
"""

from .actions import (
    AxiomCertificate,
    NearestIndex,
    OrbitMapReport,
    QuasiAction,
    certify_axioms,
    nearest_point_maps,
    orbit_map_qi,
    quasi_action,
    quasi_conjugacy_defect,
)
from .folner import FolnerReport, c_boundary, folner_ratio, folner_scan
from .graphs import (
    CayleyGraph,
    HorocyclicGraph,
    RoughGraph,
    build_graph,
    certify_qi,
    default_threshold,
    edge_csv,
    graph_distance,
    graph_stats,
    to_dot,
)
from .growth import (
    ComparisonVerdict,
    GrowthSeries,
    GrowthVerdict,
    ball_sizes,
    classify_growth,
    compare_growth,
)
from .nets import (
    HOROCYCLIC_DENSITY_RADIUS,
    HOROCYCLIC_SEPARATION,
    MultiplicityProfile,
    QuasiLattice,
    greedy_net,
    group_ball_lattice,
    horocyclic_lattice,
    sample_probes,
    verify_quasilattice,
)
from .spaces import (
    BallWindow,
    BoxWindow,
    EuclideanModel,
    FreeGroupModel,
    H2Window,
    HeisenbergModel,
    HyperbolicPlaneModel,
    QiConstants,
    SpaceModel,
    TOL,
    ZdModel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
