"""Simulator and exact-analysis toolkit for adaptive carrier-sense scheduling.

Nodes on a conflict graph transmit via carrier sensing with exponential
backoff; the feasible schedules are the graph's independent sets.  The
package simulates the continuous-time schedule dynamics exactly, computes the
product-form stationary law in exact mode, fits backoff vectors to target
service rates, runs the queue-driven and price-driven adaptation rules, and
certifies their guarantees (capacity membership, fixed-point fits, utility
gaps) against small-scale exact computations.
"""
from .chain import (ChainDiagnostics, GlauberKernel, Occupancy, Trajectory,
                    chain_diagnostics, conductance, ctmc_generator,
                    empirical_distribution, glauber_kernel, occupancy,
                    second_eigenvalue_modulus, simulate, tv_distance)
from .conflict_graph import (AdmissibilityCertificate, ConflictGraph,
                             IndependentSetFamily, backoff_norm_bound,
                             enumerate_independent_sets, induced_subgraph,
                             is_strictly_admissible, max_weight_independent_set,
                             preset, read_edge_list)
from .config import load_config, parse_config
from .congestion import (DualSolution, GapCertificate, UtilityFunction,
                         UtilityOptimum, best_response, best_responses,
                         default_beta, dual_value, solve_dual_optimum,
                         solve_utility_optimum, total_utility,
                         update_prices_constant, update_prices_diminishing,
                         utility_gap_certificate)
from .engine import ExperimentConfig, MetricsRecord, run_experiment
from .errors import (ConfigError, ConvergenceFailure, ExactModeUnavailable,
                     InfeasibleRates, InvariantViolation, NumericFailure)
from .gibbs import (BackoffSolution, GibbsDistribution, entropy, kl_divergence,
                    log_likelihood, log_likelihood_gradient,
                    log_likelihood_hessian, log_partition, service_rates,
                    solve_backoff, stationary_distribution, variational_gap)
from .scheduling import (ConstantStepPlan, constant_step_plan, epoch_params,
                         fitted_reference, lyapunov_potential,
                         potential_lower_bound, update_diminishing,
                         update_projected)
from .traffic import (ArrivalSpec, QueueState, integrate_epoch, reflect,
                      sample_epoch_arrivals)

__version__ = "0.1.0"
