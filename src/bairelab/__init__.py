"""bairelab: exact computations with trees on the naturals, segment-family
norms over them, and the finite geometric checkers built on both."""

from .baire import (
    BaireVector,
    ExponentP,
    P_ZERO,
    baire_norm,
    baire_norm_oracle,
    baire_norm_witness,
    baire_norm_zero,
    check_branch_isometry,
    check_incomparable_additivity,
    check_root_decomposition,
    delta,
    exact_mode,
    linear_combination,
    segment_vector,
    vector_combine,
)
from .bases import APPROX_TOL, BasisKind, NormValue, basis_norm, deleted_first
from .checkers import (
    BaireContext,
    StepContext,
    TrialCoeffs,
    VectorFamily,
    abs_obstruction_falsify,
    bs_obstruction_check,
    cesaro_mean,
    convex_block_min,
    delta_antichain_family,
    weak_null_probe,
)
from .errors import BaireLabError
from .steps import (
    BushLevels,
    DyadicStep,
    bush_check,
    cell_indicator,
    constant_step,
    l1_norm,
    level_difference,
    rademacher_bush,
    step_combine,
    step_linear_combination,
)
from .trees import (
    Cofinite,
    FiniteTree,
    LazyTree,
    ProbeVerdict,
    Segment,
    derived_tree,
    full_kary,
    is_segment,
    lazy_from_tree,
    make_tree,
    order_index,
    prefix_closure,
    probe_wf,
    random_tree,
    restricted_at,
    segments_incomparable,
    spine,
    subtree_at,
)
from .verdicts import CheckReport, Verdict

__version__ = "0.1.0"
