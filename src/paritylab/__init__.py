"""paritylab: decide, construct, and certify parity factors in undirected graphs."""

__version__ = "0.1.0"

from .connectivity import CutCertificate, edge_connectivity
from .experiment import ExperimentConfig, run_verification_experiment
from .generators import (
    complete_graph,
    cycle,
    extremal_construction,
    petersen,
    random_regular,
    sharpness_certificate,
)
from .graph import (
    Graph,
    VertexSet,
    build_graph,
    components_after_removal,
    edges_between,
    emit_graph,
    parse_graph,
)
from .lovasz import (
    Decision,
    DeficiencyWitness,
    ParitySpec,
    decide_by_enumeration,
    deficiency,
    verify_witness,
)
from .matching import Matching, max_matching
from .solver import (
    Factor,
    GadgetMap,
    brute_force_factor,
    build_parity_gadget,
    factor_or_witness,
    find_parity_factor,
    verify_factor,
)
from .theorems import check_main_conditions, m_star, small_cut

__all__ = [
    "CutCertificate",
    "Decision",
    "DeficiencyWitness",
    "ExperimentConfig",
    "Factor",
    "GadgetMap",
    "Graph",
    "Matching",
    "ParitySpec",
    "VertexSet",
    "brute_force_factor",
    "build_graph",
    "build_parity_gadget",
    "check_main_conditions",
    "complete_graph",
    "components_after_removal",
    "cycle",
    "decide_by_enumeration",
    "deficiency",
    "edge_connectivity",
    "edges_between",
    "emit_graph",
    "extremal_construction",
    "factor_or_witness",
    "find_parity_factor",
    "m_star",
    "max_matching",
    "parse_graph",
    "petersen",
    "random_regular",
    "run_verification_experiment",
    "sharpness_certificate",
    "small_cut",
    "verify_factor",
    "verify_witness",
]
