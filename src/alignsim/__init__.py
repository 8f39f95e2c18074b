"""Interference-alignment simulator and DoF bound calculators.

Library layout:

* ``linalg`` — numeric rank / subspace tests (single tolerance policy);
* ``rational`` — exact rank and solve by fraction-free integer elimination;
* ``channel`` — changing patterns, block-fading diagonal channels, direct
  transforms, network configs and sampling;
* ``decomposition`` — power / indexed diagonal basis families and solves;
* ``blind`` — pattern-only precoding and free-dimension counting;
* ``shared`` — same-destination-pattern sharing schemes and DoF bounds;
* ``fastfading`` — half-CSI surrogate-family schemes and CSIT-fraction caps;
* ``harness`` — seeded Monte Carlo verification;
* ``cli`` — the ``alignsim`` command.
"""

from .linalg import (DEFAULT_TOL, RankTolerance, balanced_rank, is_subspace,
                     joint_rank, numeric_rank)
from .channel import (ChangingPattern, NetworkConfig, UnknownSet,
                      constant_intervals, mobility_rate, sample_channel,
                      sample_network, union_pattern)
from .decomposition import (build_indexed_basis, build_power_basis, decompose,
                            reconstruct)
from .blind import (blind_total_dof, build_blind_scheme, generic_free_dims,
                    measured_free_dims, predicted_free_dims)
from .shared import (best_sharing_degree, construct_shared, curve_f,
                     dense_demo_patterns, dof_table, dof_upper_bound,
                     pair_demo_patterns, scheme_counts, sharing_dof)
from .fastfading import (build_3user, build_kuser, dof_cap_given_upsilon,
                         min_upsilon_for_max_dof, upsilon_fraction,
                         verify_3user)
from .harness import Scenario, alignment_report, run_trials

__version__ = "0.1.0"
