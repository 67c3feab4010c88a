"""stabparts: p-parts of setwise stabilizers in finite permutation groups.

Decides whether a permutation group is p-concealed, p-moderate, or
p-extreme on its domain, constructs explicit witness subsets, and evaluates
the subset-census counting criterion — all with exact integer arithmetic at
desk scale (enumerable groups, degree <= a few thousand).
"""

__version__ = "0.1.0"

from .affine import (
    SemilinearGen,
    affine_group,
    group_from_document,
    named_group,
    product_action,
)
from .census import (
    CountingCertificate,
    CriterionInapplicable,
    orbit_size_floor_check,
    prop_certificate,
    randomized_witness_from_z,
    subsets_fixed_count,
    sylow_cover_bound,
)
from .classify import (
    ModerationReport,
    census_histogram,
    classify_moderation,
    is_p_concealed,
    metacyclic_witness,
    orbit_witness_odd_p,
    p2_regular_witness,
    point_stabilizer_of_zero,
    regular_orbit_pair,
    regular_orbit_vector,
    setwise_stabilizer,
    translation_witness,
)
from .fields import FiniteField, build_field, p_part
from .perms import (
    DegreeMismatch,
    Permutation,
    PermGroup,
    PointSet,
    ResourceLimit,
    compose,
    element_order,
    format_cycles,
    is_primitive,
    normalizer,
    orbits,
    parse_cycles,
    primitivity_blocks,
    stab_p_part,
)
from .sylow import (
    SylowData,
    all_sylows,
    find_sylow,
    frattini_center_element,
    is_elementary_abelian,
)
