"""Simulated ring-confidential blockchain economies and their traceability.

The package splits into: a ground-truth ledger with decoy rings (`ledger`),
stochastic agent economies driving it (`economy`), the 182-column public
featurization (`features`), native models and attack tasks (`ml`), external
dump ingestion (`ingest`), and the command-line front end (`cli`).
"""

from .economy import (
    AgentProfile,
    EconomySpec,
    GroundTruth,
    ScheduledTx,
    SimParams,
    gen_economy,
    graph_edges,
    run_simulation,
    scenario_preset,
)
from .features import (
    FEATURE_NAMES,
    FeatureMatrix,
    candidate_table,
    featurize_chain,
    one_hop,
    ring_pair_correlation,
    zero_hop,
)
from .ledger import (
    Chain,
    DecoyPolicy,
    PublicChain,
    apply_block,
    build_transaction,
    public_view,
    select_decoys,
    validate_chain,
)
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "AgentProfile", "EconomySpec", "GroundTruth", "ScheduledTx", "SimParams",
    "gen_economy", "graph_edges", "run_simulation", "scenario_preset",
    "FEATURE_NAMES", "FeatureMatrix", "candidate_table", "featurize_chain",
    "one_hop", "ring_pair_correlation", "zero_hop",
    "Chain", "DecoyPolicy", "PublicChain", "apply_block", "build_transaction",
    "public_view", "select_decoys", "validate_chain",
    "Rng", "__version__",
]
