"""Clustering and shape fitting over stochastic point sets.

Exact and Monte-Carlo expected-objective evaluation, additive grid coresets
with exact class probabilities, generalized k-median coresets and solvers,
and j-flat-center coresets, plus brute-force oracles and a CLI.
"""

from .errors import (CaseMismatch, CombinationGuardExceeded,
                     DimensionMismatch, EmptyRealization,
                     EnumerationGuardExceeded, GuardExceeded,
                     InstanceTooLarge, NonFiniteValue, SchemaError,
                     StateSpaceGuardExceeded, StocenterError,
                     ZeroCostCandidate)
from .gkm import (WeightedCollection, candidate_costs, collection_from_image,
                  gkm_cost, importance_sample_coreset, sensitivity_bruteforce,
                  sensitivity_projection, skc_pipeline, solve_gkm)
from .grid_coreset import (CoresetBuilder, CoresetOutput, GridSpec,
                           coreset_image_size_bound)
from .jflat import (build_S1, build_S2, build_sjfc_coreset, sjfc_pipeline,
                    solve_jflat, sweep_convexK)
from .model import (CenterSet, ExistentialInstance, Flat, Instance,
                    LocationalInstance, instance_from_dict, instance_to_dict,
                    load_instance, load_shape, shape_from_dict, shape_to_dict)
from .objective import (ObjectiveValue, expected_flatcenter_exact,
                        expected_objective_exact, expected_objective_mc,
                        flat_distance, kcenter_value, shape_distances)
from .oracle import (minimum_enclosing_ball, oracle_expected_objective,
                     oracle_holant_direct, oracle_min_flat,
                     oracle_sensitivities, oracle_solver_gkm,
                     oracle_solver_instance)
from .partition import (WeightedImage, build_weighted_image, class_mass,
                        holant_value)

__version__ = "0.1.0"
