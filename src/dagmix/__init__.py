"""Bayesian latent binary fields on areal graphs with DAG-mixture priors.

Provides the contiguity-graph toolkit (lattices, exact spanning-tree and
orientation counts), three compatible-DAG classes with posterior samplers,
exact-MRF and pseudo-likelihood baselines, perfect sampling, and the
simulation / cross-validation harnesses.
"""

__version__ = "0.1.0"

from .dags import (
    Dag,
    WalkCapError,
    acyclic_orientation,
    dag_from_csv,
    dag_to_csv,
    is_compatible,
    markov_blanket,
    posterior_spanning_tree,
    rooted_dag,
    skeleton,
    tree_dag,
    uniform_spanning_tree,
)
from .graph import (
    DisconnectedGraphError,
    GraphFormatError,
    IntractableError,
    LatticeSpec,
    Nug,
    build_lattice_nug,
    count_acyclic_orientations,
    count_spanning_trees,
    density_of_states,
    is_connected,
    laplacian,
    load_nug,
    save_nug,
)
from .model import (
    NoiseParams,
    Observations,
    PriorSpec,
    dgm_full_conditional_posterior,
    dgm_full_conditional_prior,
    eta_full_conditional_params,
    load_observations,
    log_dgm_prior,
    log_likelihood,
    mrf_full_conditional,
    mrf_log_unnorm,
    parent_conditional,
    pseudo_likelihood_log,
    suff_stat_T,
)
from .samplers import (
    ALL_MODELS,
    AMRF,
    EXACT_MRF,
    MDGM_AO,
    MDGM_MODELS,
    MDGM_ROOTED,
    MDGM_ST,
    CoalescenceError,
    Init,
    McmcConfig,
    PosteriorSamples,
    cftp_ising,
    direct_update_st,
    exchange_update_beta_mrf,
    gibbs_update_eta,
    gibbs_update_z,
    mh_update_beta,
    mh_update_dag,
    run_chain,
)
from .experiments import (
    BootstrapCI,
    MetricsRecord,
    ObsScheme,
    SimConfig,
    bootstrap_ci,
    cross_validate,
    exact_posterior_oracle,
    generate_dataset,
    joint_beta_oracle,
    mrf_log_partition,
    posterior_mean_accuracy,
    posterior_rmse_T,
    predict_rating_probability,
    pseudo_prior_mass,
    run_simulation_study,
)
