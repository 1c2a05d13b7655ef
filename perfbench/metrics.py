"""The benchmark's metrics: names, units, better direction, and for each
per-layer metric the end-to-end metric and workloads it should move.

BENCHMARK.json lists the same names, units and directions; the smoke test
keeps the two in step.  The `moves` column is the prediction to check a
layer change against: a change to that layer should move the named
end-to-end metric on the named workloads, and leave the others unchanged.
"""

WORKLOADS = ("catalog", "catalog-2w", "families", "negatives")

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "pass_ratio": ("ratio", "higher"),
    "exact_share": ("ratio", "higher"),
}

_ALL = WORKLOADS
_CAT = ("catalog", "catalog-2w")

# name -> (unit, better, end-to-end metric it should move, workloads)
PER_LAYER = {
    "numeric.tier_probe.calls": ("count", "lower", "wall_s", _CAT),
    "numeric.tier_probe.s": ("s", "lower", "wall_s", _CAT),
    "numeric.eval_mp.calls": ("count", "lower", "wall_s", _CAT),
    "numeric.eval_mp.self_s": ("s", "lower", "wall_s", _CAT),
    "numeric.points_admissible_ratio": ("ratio", "higher", "wall_s", _CAT),
    "numeric.tier_exact.calls": ("count", "lower", "wall_s", ("families", "negatives")),
    "numeric.tier_exact.s": ("s", "lower", "wall_s", ("families", "negatives")),
    "numeric.clear_denominators.self_s": ("s", "lower", "wall_s", ("families", "negatives")),
    "numeric.eval_exact.calls": ("count", "lower", "wall_s", ("families", "negatives")),
    "numeric.eval_exact.self_s": ("s", "lower", "wall_s", ("families", "negatives")),
    "numeric.verdicts.ExactZero": ("count", "higher", "exact_share", _ALL),
    "numeric.verdicts.ExactNonzero": ("count", "higher", "exact_share", _ALL),
    "numeric.verdicts.ProbablyZero": ("count", "lower", "exact_share", _ALL),
    "numeric.verdicts.ProbablyNonzero": ("count", "lower", "exact_share", _ALL),
    "expr.substitute.calls": ("count", "lower", "wall_s", ("families", "catalog")),
    "expr.substitute.self_s": ("s", "lower", "wall_s", ("families", "catalog")),
    "jet.apply_prolonged.calls": ("count", "lower", "wall_s", ("families", "catalog")),
    "jet.apply_prolonged.self_s": ("s", "lower", "wall_s", ("families", "catalog")),
    "jet.prolong.calls": ("count", "lower", "wall_s", ("families", "catalog")),
    "jet.prolong.self_s": ("s", "lower", "wall_s", ("families", "catalog")),
    "jet.total_derivative.self_s": ("s", "lower", "wall_s", ("families", "catalog")),
    "expr.residual_terms": ("count", "lower", "wall_s", _ALL),
    "catalog.load_catalog.self_s": ("s", "lower", "setup_s", _ALL),
    "catalog.instantiate.calls": ("count", "lower", "wall_s", ("families",)),
    "catalog.instantiate.self_s": ("s", "lower", "wall_s", ("families",)),
    "parse.parse_expression.calls": ("count", "lower", "wall_s", ("families",)),
    "parse.parse_expression.self_s": ("s", "lower", "wall_s", ("families",)),
    "invariance.check_equation_invariance.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "invariance.check_differential_invariant.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "invariance.rank_and_count.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "invdiff.verify_lambda.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "invdiff.apply_D.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "invdiff.functional_rank.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "liedet.lie_determinant.calls": ("count", "lower", "wall_s", ("catalog",)),
    "liedet.lie_determinant.self_s": ("s", "lower", "wall_s", ("catalog",)),
    "liedet.non_polynomial.calls": ("count", "lower", "wall_s", ("catalog",)),
    "harness.record_max_s": ("s", "lower", "wall_s", ("catalog-2w",)),
    "harness.check_max_s": ("s", "lower", "wall_s", ("catalog-2w",)),
}

# Count metrics repeat exactly between two traced runs with the same seed.
COUNT_METRICS = tuple(name for name, spec in PER_LAYER.items() if spec[0] == "count")
