"""The package root: one public name per capability."""

import unruhpd

PUBLIC_NAMES = [
    "CLASSICAL_PROFILES",
    "EquilibriumReport",
    "GAMMA_MAX",
    "GameSetup",
    "NAMED_STRATEGIES",
    "Payoffs",
    "PayoffTable",
    "R_MAX",
    "Strategy",
    "SUITE_NAMES",
    "VerifyOutcome",
    "analyze",
    "best_response",
    "entangler",
    "find_dominant",
    "find_nash",
    "max_entangled_classical",
    "miracle_vs_classical",
    "named_strategy_matrix",
    "pareto_front",
    "payoff_table",
    "play",
    "q_vs_arbitrary",
    "r_from_acceleration",
    "run_suite",
    "set_best_responses",
    "unentangled_classical",
]


def test_package_root_exports_exactly_the_public_names():
    assert sorted(unruhpd.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(unruhpd.__all__)) == len(unruhpd.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(unruhpd, name) is not None
