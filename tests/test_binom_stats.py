"""Binomial mass functions, exact TV distances, and the shift bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.binom_stats import (
    BinomialSpec,
    JOINT_SUPPORT_CAP,
    bin_hit_prob,
    exact_dtv,
    hit_prob,
    approximate_shift_cells,
    masses,
    pmf_vector,
    product_dtv,
    rate_powers,
    refine_mask,
    shift_bound_sweep,
    tv_distance,
    tv_shift_bound,
    tv_shift_param,
    TRIAL_CAP,
    TV_BOUND_CONSTANT,
)
from junta_lab.errors import (
    DegenerateRate,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidInput,
    MismatchedSupport,
    TooLarge,
)
from junta_lab import binom_stats
from junta_lab.harness import (
    _BOUND_SWEEP_RATES,
    _BOUND_SWEEP_TOP,
    ExperimentConfig,
    desk_params,
    dtv_sweep,
)
from junta_lab.params import DESK_SCALE, derive_params
from junta_lab.rng import RandomStream, Seed
from junta_lab.tasks import ElementQueryPlan, sseq_respond
from references import bound_sweep_cells, log_pmf, pascal_rows, per_term_dtv, pmf
from junta_lab.boolfn import IndexSet


def test_pmf_examples():
    assert pmf(BinomialSpec(0, 0.3), 0) == 1.0
    assert pmf(BinomialSpec(2, 0.5), 1) == 0.5
    assert pmf(BinomialSpec(1, 0.75), 1) == 0.75
    with pytest.raises(IndexOutOfRange):
        pmf(BinomialSpec(2, 0.5), 3)
    with pytest.raises(IndexOutOfRange):
        pmf(BinomialSpec(2, 0.5), -1)


def test_pmf_degenerate_rates():
    assert pmf(BinomialSpec(3, 0.0), 0) == 1.0
    assert pmf(BinomialSpec(3, 0.0), 2) == 0.0
    assert pmf(BinomialSpec(3, 1.0), 3) == 1.0
    assert pmf(BinomialSpec(3, 1.0), 0) == 0.0
    assert log_pmf(BinomialSpec(3, 0.0), 1) == -math.inf


def test_pmf_matches_direct_formula():
    for c in (5, 20, 60):
        for r in (0.1, 0.35, 0.5, 0.9):
            for k in range(c + 1):
                direct = math.comb(c, k) * r**k * (1 - r) ** (c - k)
                assert pmf(BinomialSpec(c, r), k) == pytest.approx(direct, rel=1e-12)


def test_pmf_normalization_to_1e12():
    for c in (10, 100, 1000, 10_000):
        for r in (0.001, 0.3, 0.5, 0.97):
            total = math.fsum(pmf_vector(BinomialSpec(c, r)).tolist())
            assert abs(total - 1.0) <= 1e-12


def test_pmf_scalar_matches_vector_at_large_c():
    spec = BinomialSpec(10_000, 0.3)
    vec = pmf_vector(spec)
    for k in (0, 1, 1500, 3000, 3001, 5000, 9999, 10_000):
        assert pmf(spec, k) == vec[k]


def test_exact_dtv_examples():
    assert exact_dtv(BinomialSpec(4, 0.3), BinomialSpec(4, 0.3)) == 0.0
    assert exact_dtv(BinomialSpec(1, 0.5), BinomialSpec(1, 0.75)) == 0.25
    assert exact_dtv(BinomialSpec(3, 0.0), BinomialSpec(3, 1.0)) == 1.0
    with pytest.raises(MismatchedSupport):
        exact_dtv(BinomialSpec(1, 0.5), BinomialSpec(2, 0.5))


def test_exact_dtv_is_a_metric_on_samples():
    rng = np.random.default_rng(31)
    for _ in range(40):
        c = int(rng.integers(1, 30))
        ra, rb, rc = rng.random(3)
        a, b, d = BinomialSpec(c, ra), BinomialSpec(c, rb), BinomialSpec(c, rc)
        assert exact_dtv(a, b) == exact_dtv(b, a)
        assert exact_dtv(a, b) <= exact_dtv(a, d) + exact_dtv(d, b) + 1e-12
        if ra != rb:
            assert exact_dtv(a, b) > 0.0


def test_exact_dtv_monotone_in_shift():
    c, r = 12, 0.2
    shifts = [i / 50 * 0.8 for i in range(41)]
    values = [exact_dtv(BinomialSpec(c, r), BinomialSpec(c, r + x)) for x in shifts]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_hit_prob_examples():
    assert hit_prob(0, 0.5, 4) == 0.0
    assert hit_prob(1, 0.5, 4) == 0.25
    assert hit_prob(2, 1.0, 4) == pytest.approx(0.75, abs=1e-15)
    assert hit_prob(5, 0.0, 4) == 0.0
    with pytest.raises(InvalidInput):
        hit_prob(-1, 0.5, 4)


def test_bin_hit_prob_examples():
    assert bin_hit_prob(0, 0.5, 4) == 0.25
    assert bin_hit_prob(0, 0.0, 4) == 0.0
    assert bin_hit_prob(1, 1.0, 4) == pytest.approx(0.75, abs=1e-15)
    # exact compounding, not an exponential approximation
    assert bin_hit_prob(10, 0.1, 100) == pytest.approx(1 - (1 - 0.01) ** 1024, rel=1e-12)
    with pytest.raises(InvalidInput):
        bin_hit_prob(-1, 0.5, 4)


def test_tv_shift_param():
    assert tv_shift_param(0.0, 5, 0.3) == 0.0
    assert tv_shift_param(0.1, 2, 0.5) == pytest.approx(0.1 * math.sqrt(8.0), rel=1e-15)
    assert tv_shift_param(0.2, 7, 0.3) == pytest.approx(2 * tv_shift_param(0.1, 7, 0.3), rel=1e-15)
    with pytest.raises(DegenerateRate):
        tv_shift_param(0.1, 2, 0.0)
    with pytest.raises(DegenerateRate):
        tv_shift_param(0.1, 2, 1.0)
    # the bound compares Bin(c, r) with Bin(c, r + x) for x >= 0 only
    for x in (-0.05, -1e-300, math.nan):
        with pytest.raises(InvalidInput):
            tv_shift_param(x, 10, 0.3)


def test_tv_shift_bound_applicability():
    assert tv_shift_bound(0.9, 100, 0.5) is None
    assert tv_shift_bound(0.0, 100, 0.5) == 0.0
    bound = tv_shift_bound(0.01, 10, 0.4)
    t = tv_shift_param(0.01, 10, 0.4)
    assert bound == pytest.approx(TV_BOUND_CONSTANT * t / (1 - t) ** 2, rel=1e-15)


def test_bound_dominates_exact_dtv_on_sweep():
    # the desk sweep at q - p from valid strict parameters
    params = derive_params(1024, 0.75, 0.1)
    p, q = params.p, params.q
    cells = 0
    for c in range(1, 257, 5):
        for lam in (0.001, 0.01, 0.05, 0.1, 0.3, 0.6, 1.0):
            r = p * lam
            x = (q - p) * lam
            if not 0.0 < r < 1.0:
                continue
            bound = tv_shift_bound(x, c, r)
            if bound is None:
                continue
            cells += 1
            assert exact_dtv(BinomialSpec(c, r), BinomialSpec(c, q * lam)) <= bound
    assert cells > 100


def test_subadditivity_single_pair_is_equality():
    a, b = BinomialSpec(4, 0.2), BinomialSpec(4, 0.6)
    assert product_dtv([(a, b)]) == pytest.approx(exact_dtv(a, b), abs=1e-15)


def test_subadditivity_identical_pairs():
    a = BinomialSpec(3, 0.4)
    assert product_dtv([(a, a), (a, a)]) == 0.0 and exact_dtv(a, a) == 0.0


def test_subadditivity_random_triples():
    rng = np.random.default_rng(41)
    for _ in range(30):
        pairs = []
        for _ in range(3):
            c = int(rng.integers(1, 6))
            pairs.append((BinomialSpec(c, float(rng.random())), BinomialSpec(c, float(rng.random()))))
        assert product_dtv(pairs) <= sum(exact_dtv(a, b) for a, b in pairs) + 1e-12


def test_trial_count_cap_refuses_before_any_work(monkeypatch):
    # the cap leaves room for the element game's m = 33 792 at n = 2^16
    assert TRIAL_CAP > 33_792

    def no_work(c):
        raise AssertionError("a refused trial count started its coefficient row")

    monkeypatch.setattr(binom_stats, "_coefficients", no_work)
    over = BinomialSpec(TRIAL_CAP + 1, 0.3)
    with pytest.raises(TooLarge):
        pmf_vector(over)
    with pytest.raises(TooLarge):
        exact_dtv(over, BinomialSpec(TRIAL_CAP + 1, 0.4))
    with pytest.raises(TooLarge):
        exact_dtv(BinomialSpec(TRIAL_CAP + 1, 0.0), BinomialSpec(TRIAL_CAP + 1, 1.0))
    # rates 0 and 1 never start the recurrence, so their masses stay available
    point = pmf_vector(BinomialSpec(TRIAL_CAP + 1, 1.0))
    assert point[-1] == 1.0 and point[:-1].sum() == 0.0


def test_subadditivity_caps():
    big = BinomialSpec(2000, 0.5)
    with pytest.raises(TooLarge):
        product_dtv([(big, big), (big, big)])
    with pytest.raises(InvalidInput):
        product_dtv([])
    with pytest.raises(MismatchedSupport):
        product_dtv([(BinomialSpec(1, 0.5), BinomialSpec(2, 0.5))])
    # one pair inside the joint support cap but above the trial-count cap
    over = BinomialSpec(TRIAL_CAP + 1, 0.5)
    assert TRIAL_CAP + 2 <= JOINT_SUPPORT_CAP
    with pytest.raises(TooLarge):
        product_dtv([(over, over)])
    point_a, point_b = BinomialSpec(TRIAL_CAP + 1, 0.0), BinomialSpec(TRIAL_CAP + 1, 1.0)
    assert product_dtv([(point_a, point_b)]) == 1.0


def test_summary_distribution_degenerate():
    params = derive_params(10, 0.75, 0.1, DESK_SCALE)
    spec = BinomialSpec(0, params.p * bin_hit_prob(0, params.epsilon, params.n))
    assert pmf(spec, 0) == 1.0


def _chi_square_quantile(df: int, alpha: float = 1e-3) -> float:
    # Wilson-Hilferty approximation of the upper-alpha chi-square quantile
    z = 3.090232306167813  # 99.9th percentile of the standard normal
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


def test_summary_counts_match_binomial_law():
    # one bin of size c_j, every element queried 2^j times, hidden set
    # resampled each round: ones-counts must follow the predicted binomial
    params = derive_params(64, 0.75, 0.3, DESK_SCALE)
    j, c_j = 1, 6
    plan = ElementQueryPlan.uniform(c_j, 1 << j)
    spec = BinomialSpec(c_j, params.p * bin_hit_prob(j, params.epsilon, params.n))
    rounds = 10_000
    hidden = RandomStream([Seed(77)], "summary-law")
    responses = RandomStream([Seed(77)], "summary-law/resp")
    counts = np.zeros(c_j + 1, dtype=np.int64)
    for _ in range(rounds):
        mask = hidden.below(c_j, params.p)[0]
        A = IndexSet.of(c_j, (i + 1 for i in range(c_j) if mask[i]))
        b = sseq_respond(A, plan, params.epsilon, params.n, responses)
        counts[sum(b)] += 1
    expected = pmf_vector(spec) * rounds
    # merge tail cells with expectation below 5 for a stable statistic
    keep = expected >= 5.0
    chi = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
    chi += float((counts[~keep].sum() - expected[~keep].sum()) ** 2 / max(expected[~keep].sum(), 1e-9))
    df = int(keep.sum())  # merged tail adds one cell, minus one constraint
    assert chi <= _chi_square_quantile(df)


def test_summary_mean_shift_between_rates():
    params = derive_params(64, 0.75, 0.3, DESK_SCALE)
    j, c_j = 0, 8
    plan = ElementQueryPlan.uniform(c_j, 1)
    rounds = 4000
    means = {}
    for label, rate in (("yes", params.p), ("no", params.q)):
        totals = 0
        hidden = RandomStream([Seed(78)], f"summary-shift/{label}")
        responses = RandomStream([Seed(78)], f"summary-shift/{label}/r")
        for _ in range(rounds):
            mask = hidden.below(c_j, rate)[0]
            A = IndexSet.of(c_j, (i + 1 for i in range(c_j) if mask[i]))
            totals += sum(sseq_respond(A, plan, params.epsilon, params.n, responses))
        means[label] = totals / rounds
    lam = bin_hit_prob(j, params.epsilon, params.n)
    expected_shift = (params.q - params.p) * lam * c_j
    yes_var, no_var = params.p * lam, params.q * lam
    sigma = math.sqrt(
        c_j * yes_var * (1 - yes_var) / rounds + c_j * no_var * (1 - no_var) / rounds
    )
    assert abs((means["no"] - means["yes"]) - expected_shift) <= 3 * sigma


@settings(max_examples=50, deadline=None)
@given(
    c=st.integers(min_value=0, max_value=40),
    r=st.floats(min_value=0.0, max_value=1.0),
)
def test_pmf_vector_normalizes(c, r):
    total = math.fsum(pmf_vector(BinomialSpec(c, r)))
    assert abs(total - 1.0) <= 1e-12


_RATES = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1.0, 0.5, 1e-300, 1.0 - 2**-53])


@settings(max_examples=60, deadline=None)
@given(c=st.integers(min_value=0, max_value=1000), r=_RATES, s=_RATES)
def test_mass_vectors_equal_per_entry_pmf(c, r, s):
    # The coefficient recurrence gives exactly pmf()'s floats, and exact_dtv
    # exactly the fsum of their per-entry gaps.
    a, b = BinomialSpec(c, r), BinomialSpec(c, s)
    va = [pmf(a, k) for k in range(c + 1)]
    vb = [pmf(b, k) for k in range(c + 1)]
    assert pmf_vector(a).tolist() == va
    assert exact_dtv(a, b) == 0.5 * math.fsum(abs(x - y) for x, y in zip(va, vb))


def test_mass_vectors_above_the_direct_cap():
    # Above c = 1000 the masses come through logs, and exact_dtv is still
    # exactly the fsum of the reference's per-entry gaps; at 0.3 against 0.5
    # numpy's pairwise sum of the same gaps rounds differently.
    pairs = [(1001, 0.3, 0.31), (1001, 0.3, 0.5), (1500, 0.0, 1.0), (1500, 1.0, 0.5), (2000, 1e-3, 0.0)]
    for c, r, s in pairs:
        a, b = BinomialSpec(c, r), BinomialSpec(c, s)
        va = [pmf(a, k) for k in range(c + 1)]
        vb = [pmf(b, k) for k in range(c + 1)]
        assert pmf_vector(a).tolist() == va
        assert pmf_vector(b).tolist() == vb
        assert exact_dtv(a, b) == 0.5 * math.fsum(abs(x - y) for x, y in zip(va, vb))


def test_pascal_rows_are_the_rounded_coefficients():
    for c, row in pascal_rows(300):
        assert row.tolist() == [float(math.comb(c, k)) for k in range(c + 1)]
    assert c == 300


def test_dtv_sweep_cells_equal_the_per_term_form():
    # Every cell of dtv_sweep's bound sweep at desk n = 10, read from the
    # shared row and power tables, equals the per-term reference exactly,
    # and so do the sweep's cell count, violations and worst margin.
    params = desk_params(10)
    cells, violations, worst = 0, 0, math.inf
    for c, r, shifted, bound, exact in bound_sweep_cells(params):
        a, b = BinomialSpec(c, r), BinomialSpec(c, shifted)
        reference = per_term_dtv(a, b)
        assert exact == reference, (c, r)
        assert exact_dtv(a, b) == reference
        cells += 1
        violations += reference > bound
        worst = min(worst, bound - reference)
    assert cells == 956
    report = dtv_sweep(ExperimentConfig(params, "dtv_sweep", 1, 1))
    sweep = report.rows[0]
    assert (sweep["cells"], sweep["violations"], sweep["worst_margin"]) == (cells, violations, worst)


# The bound sweep's parameters: desk n = 10 (956 cells) and 20, whose p and
# q the desk clamp makes equal, and n = 1024 (1191 cells), where q < 1.
SWEEP_PARAMS = [desk_params(10), desk_params(20), derive_params(1024, 0.75, 0.1, DESK_SCALE)]


def sweep_rates(params):
    return [(params.p * lam, (params.q - params.p) * lam) for lam in _BOUND_SWEEP_RATES]


@pytest.mark.parametrize("params", SWEEP_PARAMS, ids=lambda p: f"n{p.n}")
def test_approximate_sweep_lies_well_within_its_slack(params):
    # the approximate distance of every applicable cell is within a
    # hundredth of its slack of the exact one (the largest gap is 1.1e-16),
    # and the cells come rate by rate, c = 1..c_r, as the oracle lists them
    r, x, c, distance, bound, slack = approximate_shift_cells(sweep_rates(params), _BOUND_SWEEP_TOP)
    exact = {(cell[0], cell[1]): cell for cell in bound_sweep_cells(params)}
    assert len(c) == len(exact) == (1191 if params.n == 1024 else 956)
    for cell_r, cell_c, cell_d, cell_b, cell_slack in zip(r.tolist(), c.tolist(), distance.tolist(),
                                                          bound.tolist(), slack.tolist()):
        _, _, _, reference_bound, reference = exact[cell_c, cell_r]
        assert abs(cell_d - reference) <= cell_slack / 100
        assert abs((cell_b - cell_d) - (reference_bound - reference)) <= cell_slack / 100


@pytest.mark.parametrize("params", SWEEP_PARAMS, ids=lambda p: f"n{p.n}")
def test_dtv_sweep_row_equals_the_per_cell_oracle(params):
    cells = list(bound_sweep_cells(params))
    expected = (len(cells), sum(exact > bound for *_, bound, exact in cells),
                min(bound - exact for *_, bound, exact in cells))
    assert shift_bound_sweep(sweep_rates(params), _BOUND_SWEEP_TOP) == expected
    sweep = dtv_sweep(ExperimentConfig(params, "dtv_sweep", 1, 1)).rows[0]
    assert (sweep["cells"], sweep["violations"], sweep["worst_margin"]) == expected


def test_refine_mask_keeps_near_zero_and_near_least_margins():
    margins = np.array([0.5, 1e-13, -1e-13, 0.2, 0.2 + 1e-13, 0.2, 0.3, 3e-12])
    slacks = np.full(len(margins), 2e-12)
    # within the slack of zero: cells 1, 2 and 7, where 7 also sits only
    # 3e-12 above, so whether it is the least needs its exact value
    assert refine_mask(margins, slacks).tolist() == [
        False, True, True, False, False, False, False, True]
    # no margin near zero: the least ones, tied or within twice the slack
    positive = np.array([0.5, 0.2, 0.2 + 3e-12, 0.2, 0.2 + 5e-12, 0.7])
    assert refine_mask(positive, np.full(6, 2e-12)).tolist() == [
        False, True, True, True, False, False]
    assert refine_mask(np.zeros(0), np.zeros(0)).tolist() == []


def test_shift_bound_sweep_recomputes_the_refined_cells_exactly(monkeypatch):
    # approximate distances off by up to 1e-2, with slacks that cover it:
    # only the refined cells take the exact path, and the result stays exact
    params = desk_params(10)
    rates = sweep_rates(params)
    expected = shift_bound_sweep(rates, _BOUND_SWEEP_TOP)
    approximate = binom_stats.approximate_shift_cells

    def skewed(rates, top):
        r, x, c, distance, bound, slack = approximate(rates, top)
        return r, x, c, distance + 1e-2 * np.sin(c), bound, np.full(len(c), 1e-2)

    monkeypatch.setattr(binom_stats, "approximate_shift_cells", skewed)
    calls = []
    exact = binom_stats.exact_dtv
    monkeypatch.setattr(binom_stats, "exact_dtv", lambda a, b: calls.append(a.c) or exact(a, b))
    assert shift_bound_sweep(rates, _BOUND_SWEEP_TOP) == expected
    r, x, c, distance, bound, slack = skewed(rates, _BOUND_SWEEP_TOP)
    assert 1 < len(calls) == refine_mask(bound - distance, slack).sum() < expected[0] // 2


def test_dtv_sweep_memory_stays_small():
    # the approximate pass works in chunks of _SWEEP_CELLS cells
    config = ExperimentConfig(desk_params(10), "dtv_sweep", 1, 1)
    dtv_sweep(config)
    tracemalloc.start()
    try:
        dtv_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


def test_shift_bound_sweep_rejects_a_negative_shift_and_a_top_above_the_cap():
    with pytest.raises(InvalidInput):
        shift_bound_sweep([(0.5, -0.1)], 10)
    with pytest.raises(TooLarge):
        shift_bound_sweep([(0.5, 0.1)], 1001)
    assert shift_bound_sweep([(0.0, 0.1), (1.0, 0.0)], 10) == (0, 0, math.inf)


@settings(max_examples=80, deadline=None)
@given(c=st.integers(min_value=0, max_value=1000), r=_RATES, s=_RATES)
def test_exact_dtv_equals_the_per_term_form(c, r, s):
    a, b = BinomialSpec(c, r), BinomialSpec(c, s)
    assert exact_dtv(a, b) == per_term_dtv(a, b)


def test_dtv_tables_at_the_clipped_rates():
    # r = 0 and r' = 1 (dtv_sweep's min(r + x, 1.0) clip): 0.0**0 stays 1.0.
    zero, one = rate_powers(0.0, 1000), rate_powers(1.0, 1000)
    assert zero[0][0] == 1.0 and one[1][0] == 1.0
    for c in (0, 1, 2, 17, 999, 1000):
        a, b = BinomialSpec(c, 0.0), BinomialSpec(c, 1.0)
        expected = 0.0 if c == 0 else 1.0
        assert exact_dtv(a, b) == per_term_dtv(a, b) == expected
        for r in (0.3, 1.0 - 2**-53, 1e-300):
            mid = BinomialSpec(c, r)
            assert exact_dtv(mid, b) == per_term_dtv(mid, b)
            assert exact_dtv(a, mid) == per_term_dtv(a, mid)
    rows = dict(pascal_rows(40))
    from_tables = tv_distance(masses(rows[40], rate_powers(0.25, 1000)), masses(rows[40], one))
    assert from_tables == per_term_dtv(BinomialSpec(40, 0.25), BinomialSpec(40, 1.0))


def test_tv_distance_rejects_laws_of_different_lengths():
    assert tv_distance([0.5, 0.5], [1.0, 0.0]) == 0.5
    with pytest.raises(DimensionMismatch):
        tv_distance([1.0], [1.0, 0.0])
