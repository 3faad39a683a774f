"""Privacy accounting and mechanisms for joint releases of private outputs
and exact invariant statistics."""

from .cnd import CndSpec, cnd_cdf, cnd_quantile, cnd_sample, make_cnd, solve_c
from .dataspace import (
    DataspaceSpec,
    JointMargins,
    OneWayMargins,
    conforming_set,
    hamming_distance,
    indistinguishable_pairs,
    invariant_eval,
    semi_adjacent_bound,
    semi_adjacent_parameter,
)
from .harness import (
    CensusBudget,
    ExperimentConfig,
    census_report,
    run_gaussian_experiment,
    run_knorm_experiment,
)
from .inference import (
    Margins,
    Table2x2,
    TestResult,
    nchg_pmf,
    private_pvalue,
    solve_threshold_m,
    umpu_test,
)
from .mechanisms import (
    MechanismOutput,
    gaussian_semi,
    knorm_optimal,
    lp_mechanism,
    naive_group_wrapper,
)
from .rng import NoiseRng, RngSeed
from .sensitivity import (
    SensitivitySpace,
    brute_force_sensitivity_space,
    cell_count_query,
    contingency_s_dp,
    contingency_s_semi,
    gauge_norm,
    hull_membership,
    lp_sensitivity,
    projection_matrix,
    span_basis,
)
from .tradeoff import (
    PrivacyGuarantee,
    TradeoffSpec,
    compare_guarantees,
    compose_self,
    composition_order_check,
    eval_tradeoff,
    exact_dp,
    gaussian_dp,
    gdp_to_approx_dp,
    iterate_tradeoff,
    self_power,
    tensor_gdp,
    zcdp_group,
    zcdp_to_approx_dp,
)

__version__ = "0.1.0"
