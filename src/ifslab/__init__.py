"""ifslab: a numerical laboratory for iterated function systems.

Builds affine IFS with exact branch-set geometry, realizes the invariant
cell measures three ways, discretizes the multiplication / composition /
transfer operators on the weighted L2 space of cylinder-cell functions,
and verifies the bimodule reconstruction identities behind the
composition-operator algebra, at desk scale.
"""

from .catalog import CatalogEntry
from .errors import (ConfigError, CoverFailure, DepthMismatch, DepthOverflow, IfsLabError,
                     NoConvergence, NotAContraction)
from .geometry import (AffineContraction, AmbientBox, IfsSystem, branch_coincidence_set,
                       branch_value_set, check_open_set_condition, contraction_bounds,
                       self_similarity_defect, verify_inverse_branches)
from .measure import CellMeasure, chaos_game, exact_cell_masses, markov_fixpoint
from .operators import (CellFunction, CellOperator, adjoint_composition_op,
                        composition_op, mult_op, operator_norm, sample_to_cells,
                        transfer_op)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
