"""Racks, Hurwitz orbits, immunity, and exact graded dimensions of braided
vector spaces of rack type."""

__version__ = "0.1.0"

from .fields import GF, QQ, FieldError, NotAField, parse_field
from .racks import (
    Rack,
    RackError,
    affine_rack,
    braided_affine_param,
    invariants,
    is_braided,
    is_isomorphic,
    preset,
    preset_names,
)
from .hurwitz import HurwitzOrbit, census, orbit, sigma, sigma_inv
from .percolate import immunity_table, minimal_plague, quarantine_closure
from .braiding import (
    BraidedSpace,
    Cocycle,
    coboundary_twist,
    cocycle_preset,
    constant_cocycle,
    group_model_cocycle,
    table_cocycle,
    transposition_model,
)
from .nichols import (
    NicholsEngine,
    check_conditions,
    closed_form_kernel_1orbit,
    closed_form_kernel_8orbit_bound,
    cubic_kernel,
    derive,
    graded_dims,
    symmetrizer_apply,
)
from .presentations import Presentation, quotient_dims, relation_in_kernel
from .classify import SearchSpec, search
from .verify import verify_paper
