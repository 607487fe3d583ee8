"""Marked Hawkes processes with latent branching: simulation, variational EM,
and per-event root-source probabilities."""

from .baselines import running_window
from .bench import BenchReport, linear_fit_r2, run_bench
from .errors import NumericalError, ValidationError
from .fitting import (FitReport, PairStructure, PriorConfig, VariationalState,
                      elbo, fit, jitter_init, update_eta, update_rho_alpha,
                      update_theta_gamma)
from .metrics import (EvalReport, MiniConversations, evaluate_root_probabilities,
                      identification_accuracy, mini_conversations,
                      relative_square_error, social_power, top_k_accuracy,
                      true_root_log_probability)
from .model import (Event, EventSequence, ModelParams, base_intensity, compensator,
                    excited_intensity, log_mark_density_immigrant,
                    log_mark_density_offspring, total_intensity)
from .rootprob import (RootProbMatrix, enumerate_oracle, root_probabilities,
                       root_probabilities_mark, root_probabilities_temporal)
from .simulate import (BranchingStructure, GroundTruth, SimConfig,
                       expected_event_count, make_synthetic_config,
                       make_synthetic_params, simulate, trace_roots)

__version__ = "0.1.0"

__all__ = [
    "BenchReport", "BranchingStructure", "EvalReport", "Event",
    "EventSequence", "FitReport", "GroundTruth",
    "MiniConversations", "ModelParams", "NumericalError", "PairStructure",
    "PriorConfig", "RootProbMatrix", "SimConfig", "ValidationError",
    "VariationalState", "base_intensity", "compensator", "elbo",
    "enumerate_oracle", "evaluate_root_probabilities", "excited_intensity",
    "expected_event_count", "fit", "identification_accuracy", "jitter_init",
    "linear_fit_r2", "log_mark_density_immigrant", "log_mark_density_offspring",
    "make_synthetic_config", "make_synthetic_params", "mini_conversations",
    "relative_square_error", "root_probabilities", "root_probabilities_mark",
    "root_probabilities_temporal", "run_bench", "running_window", "simulate",
    "social_power", "top_k_accuracy", "total_intensity", "trace_roots",
    "true_root_log_probability", "update_eta",
    "update_rho_alpha", "update_theta_gamma",
]
