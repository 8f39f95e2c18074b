"""Interference-alignment simulator and DoF bound calculators.

Library layout:

* ``linalg`` — the one numeric rank entry, ``numeric_rank_by_shape``, and
  ``is_subspace`` (one fixed rank threshold);
* ``rational`` — exact rank and solve of float64 arrays by two-step
  fraction-free (Bareiss) integer elimination;
* ``channel`` — changing patterns, block-fading diagonal channels, direct
  transforms, network configs and sampling;
* ``decomposition`` — power / indexed diagonal basis families and solves;
* ``blind`` — pattern-only precoding and free-dimension counting;
* ``shared`` — same-destination-pattern sharing schemes and DoF bounds;
* ``fastfading`` — half-CSI known-gain schemes and CSIT-fraction caps;
* ``harness`` — per-regime plans built once, seeded Monte Carlo verification;
* ``cli`` — the ``alignsim`` command.
"""

from .linalg import is_subspace, numeric_rank_by_shape
from .channel import (ChangingPattern, NetworkConfig, UnknownSet,
                      constant_intervals, sample_channel, sample_network,
                      union_pattern)
from .decomposition import (build_indexed_basis, build_power_basis, decompose,
                            reconstruct)
from .blind import (blind_total_dof, build_blind_scheme, draw_blind,
                    generic_free_dims, plan_blind, predicted_free_dims,
                    verify_blind)
from .shared import (best_sharing_degree, curve_f, dense_demo_patterns,
                     dof_table, dof_upper_bound, draw_shared,
                     pair_demo_patterns, plan_shared, scheme_counts,
                     sharing_dof, verify_shared)
from .fastfading import (dof_cap_given_upsilon, draw_3user, draw_kuser,
                         min_upsilon_for_max_dof, plan_3user, plan_kuser,
                         upsilon_fraction, verify_3user, verify_kuser)
from .harness import Scenario, run_trials

__version__ = "0.1.0"
