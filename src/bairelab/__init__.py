"""bairelab: exact computations with trees on the naturals, segment-family
norms over them, and the finite geometric checkers built on both.

The public names below are read from their modules on first use, so a
process imports only the modules it runs."""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "baire": """BaireVector ExponentP P_ZERO baire_norm baire_norm_oracle
        baire_norm_witness baire_norm_zero check_branch_isometry
        check_incomparable_additivity check_root_decomposition delta
        exact_mode linear_combination segment_vector vector_combine""",
    "bases": "APPROX_TOL BasisKind NormValue basis_norm deleted_first",
    "checkers": """BaireContext StepContext TrialCoeffs VectorFamily
        abs_obstruction_falsify bs_obstruction_check cesaro_mean
        convex_block_min delta_antichain_family weak_null_probe""",
    "errors": "BaireLabError",
    "steps": """BushLevels DyadicStep bush_check cell_indicator constant_step
        l1_norm level_difference rademacher_bush step_combine
        step_linear_combination""",
    "trees": """Cofinite FiniteTree LazyTree ProbeVerdict Segment
        derived_tree full_kary is_segment lazy_from_tree make_tree
        order_index prefix_closure probe_wf random_tree restricted_at
        segments_incomparable spine subtree_at""",
    "verdicts": "CheckReport Verdict",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """The public `name`, looked up in its module every time, so the
    package holds no second reference to it."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
