"""SIS epidemics coupled to Markovian mobility between regions.

Deterministic dynamics, spectral stability classification, endemic
equilibria by Newton's method, and finite-population
stochastic simulation, with a CLI for scenario runs.
"""

from sismob.dynamics import LimitResult, ModelState, Trajectory, integrate, limit_state, rhs
from sismob.equilibria import (
    EndemicSolution,
    disease_free,
    endemic_fixed_point,
    h_map,
    lower_box_vector,
)
from sismob.mobility import (
    GeneratorMatrix,
    PopulationDistribution,
    RegionGraph,
    StationaryDistribution,
    generator_from_rates,
    is_irreducible,
    make_graph,
    metropolis_hastings_rates,
    mobility_laplacian,
    stationary_distribution,
    uniform_out_rates,
    validate_generator,
)
from sismob.spectral import (
    Analysis,
    EpidemicParams,
    Mobility,
    PerronPair,
    StabilityReport,
    analyze,
    classify,
    curing_rates_for_margin,
    lambda2_weighted,
    m_lower_bound,
    next_generation_matrix,
    reproduction_number,
    spectral_abscissa,
)
from sismob.stochastic import (
    EnsembleResult,
    Population,
    SampledRun,
    ensemble_average,
    fixed_step_run,
    gillespie_run,
    run_ensemble,
    seed_population,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "EndemicSolution", "EnsembleResult", "EpidemicParams",
    "GeneratorMatrix", "LimitResult", "Mobility", "ModelState", "PerronPair", "Population",
    "PopulationDistribution", "RegionGraph", "SampledRun", "StabilityReport",
    "StationaryDistribution",
    "Trajectory", "analyze", "classify", "curing_rates_for_margin",
    "disease_free", "endemic_fixed_point", "ensemble_average", "fixed_step_run",
    "generator_from_rates", "gillespie_run", "h_map", "integrate",
    "is_irreducible", "lambda2_weighted", "limit_state", "lower_box_vector",
    "m_lower_bound", "make_graph", "metropolis_hastings_rates",
    "mobility_laplacian", "next_generation_matrix", "reproduction_number",
    "rhs", "run_ensemble", "seed_population",
    "spectral_abscissa", "stationary_distribution", "uniform_out_rates",
    "validate_generator",
]
