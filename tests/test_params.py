"""Parameter derivation, validation, and config-file round trips."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junta_lab.errors import InvalidInput, StrictModeViolation
from junta_lab.params import (
    DESK_SCALE,
    STRICT,
    derive_params,
    from_config_text,
    load,
    to_config_text,
)


def test_reference_point_strict():
    # hand arithmetic: q = 0.5 + log2(4096)/sqrt(4096) = 0.5 + 12/64
    p = derive_params(4096, 0.75, 0.1, STRICT)
    assert p.q == 0.6875
    assert p.delta == 0.25
    assert p.k == 3072
    assert p.p == 0.5
    assert p.m + p.t == 4096
    assert not p.warning


def test_small_n_strict_rejected():
    # q = 0.5 + 6/8 = 1.25 >= 1
    with pytest.raises(StrictModeViolation):
        derive_params(64, 0.75, 0.1, STRICT)


def test_small_n_desk_clamps_q():
    p = derive_params(64, 0.75, 0.1, DESK_SCALE)
    assert p.q < 1.0
    assert p.warning


def test_epsilon_window_strict():
    with pytest.raises(StrictModeViolation):
        derive_params(4096, 0.75, 0.5, STRICT)  # above 1/6
    with pytest.raises(StrictModeViolation):
        derive_params(256, 0.75, 2.0**-100, STRICT)  # below the 2^-64 floor


def test_domain_errors():
    with pytest.raises(InvalidInput):
        derive_params(3, 0.75, 0.1, DESK_SCALE)
    with pytest.raises(InvalidInput):
        derive_params(64, 0.4, 0.1, DESK_SCALE)
    with pytest.raises(InvalidInput):
        derive_params(64, 1.0, 0.1, DESK_SCALE)
    with pytest.raises(InvalidInput):
        derive_params(64, 0.75, 0.0, DESK_SCALE)
    with pytest.raises(InvalidInput):
        derive_params(64, 0.75, 1.5, DESK_SCALE)
    with pytest.raises(InvalidInput):
        derive_params(64, 0.75, 0.1, "loose")


def test_purity():
    a = derive_params(1024, 0.75, 0.05, STRICT)
    b = derive_params(1024, 0.75, 0.05, STRICT)
    assert a == b


def test_c_alpha_identity():
    for alpha in (0.55, 0.6, 0.75, 0.9, 0.99):
        p = derive_params(4096, alpha, 0.1, DESK_SCALE)
        assert p.c_alpha > 0
        assert abs((1.5 - alpha) ** p.c_alpha - 0.5) <= 0.5 * 1e-12


def test_s_strictly_decreasing_in_epsilon():
    eps_grid = [x / 600.0 for x in range(1, 101)]  # (0, 1/6]
    values = [derive_params(1024, 0.75, e, DESK_SCALE).s for e in eps_grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_k_override_desk_only():
    p = derive_params(10, 0.75, 0.1, DESK_SCALE, k_override=5)
    assert p.k == 5 and p.warning
    with pytest.raises(InvalidInput):
        derive_params(4096, 0.75, 0.1, STRICT, k_override=5)
    with pytest.raises(InvalidInput):
        derive_params(10, 0.75, 0.1, DESK_SCALE, k_override=10)


def test_strict_requires_integral_k():
    # alpha * n = 7.5 is not a junta size
    with pytest.raises(StrictModeViolation):
        derive_params(4098, 0.75, 0.1, STRICT)


def test_config_round_trip():
    p = derive_params(4096, 0.75, 0.1, STRICT)
    text = to_config_text(p)
    assert from_config_text(text) == p
    assert to_config_text(from_config_text(text)) == text


def test_config_round_trip_desk_with_override():
    p = derive_params(10, 0.75, 0.1, DESK_SCALE, k_override=5)
    assert from_config_text(to_config_text(p)) == p


def test_config_rejects_tampering():
    p = derive_params(4096, 0.75, 0.1, STRICT)
    text = to_config_text(p).replace("q = 0.6875", "q = 0.7")
    with pytest.raises(InvalidInput):
        from_config_text(text)


def test_config_rejects_missing_and_unknown():
    p = derive_params(4096, 0.75, 0.1, STRICT)
    lines = to_config_text(p).splitlines()
    with pytest.raises(InvalidInput):
        from_config_text("\n".join(lines[1:]))
    with pytest.raises(InvalidInput):
        from_config_text("\n".join(lines + ["bogus = 1"]))
    # a repeated field is rejected, whether or not the two values agree
    n_line = next(line for line in lines if line.startswith("n ="))
    for repeat in (n_line, "n = 10"):
        with pytest.raises(InvalidInput, match="repeated"):
            from_config_text("\n".join(lines + [repeat]))


@pytest.mark.parametrize(
    "old, new",
    [
        ("m = 8", "m = "),
        ("tau = 81", "tau = x"),
        ("alpha = 0.75", "alpha = nan"),
        ("n = 10", "n = 1" + "0" * 400),
        ("epsilon = 0.1", "epsilon = 5e-324"),
    ],
    ids=["empty-int", "malformed-int", "nan-alpha", "huge-n", "tiny-epsilon"],
)
def test_config_rejects_malformed_and_out_of_range_values(old, new):
    text = to_config_text(derive_params(10, 0.75, 0.1, DESK_SCALE))
    assert old in text
    with pytest.raises(InvalidInput):
        from_config_text(text.replace(old, new))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=4096),
    alpha=st.floats(min_value=0.51, max_value=0.99),
    epsilon=st.floats(min_value=1e-6, max_value=1.0, exclude_max=False),
)
def test_desk_invariants_hold_everywhere(n, alpha, epsilon):
    p = derive_params(n, alpha, epsilon, DESK_SCALE)
    assert p.m + p.t == p.n
    assert 1 <= p.m <= p.n - 1
    assert p.t >= 1
    assert p.q < 1.0
    assert p.tau >= 1
    assert p.L >= 0
    assert p.delta == 1.0 - alpha
    assert math.isfinite(p.s) and p.s > 0
    # round trip is identity
    assert from_config_text(to_config_text(p)) == p


def test_load_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.params"
    path.write_bytes(b"n = \xff\xfe\n")
    with pytest.raises(InvalidInput, match="is not UTF-8 text"):
        load(str(path))
