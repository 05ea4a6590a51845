"""Construction parameters: derivation, validation, and flat-file serialization.

All logarithms are base 2.  Rounding conventions (frozen so downstream
golden tests stay deterministic):

* ``m``   = round(2*delta*n + delta*sqrt(n)*log2(n)), clamped to [1, n-1]
* ``k``   = floor(alpha*n)   (strict mode additionally requires alpha*n integral)
* ``tau`` = ceil(c_alpha * 5 * log2(n/epsilon))
* ``L``   = max(0, ceil(log2(2*s)))

``strict`` mode enforces every asymptotic-regime constraint and rejects
scales where they break.  ``desk_scale`` mode instead clamps the inclusion
rate ``q`` below 1, skips the epsilon window check, and accepts clamped
set sizes, recording that a constraint was relaxed in the ``warning``
flag so small-n experiments remain runnable but visibly off-regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidInput, StrictModeViolation

STRICT = "strict"
DESK_SCALE = "desk_scale"
MODES = (STRICT, DESK_SCALE)

Q_CLAMP = 1.0 - 2.0**-20
EPSILON_MAX_STRICT = 1.0 / 6.0


@dataclass(frozen=True)
class Params:
    """Every derived scalar of the construction, immutable after creation."""

    n: int
    alpha: float
    epsilon: float
    delta: float
    k: int
    p: float
    q: float
    m: int
    t: int
    tau: int
    c_alpha: float
    s: float
    L: int
    mode: str
    warning: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidInput(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.5 < self.alpha < 1.0:
            raise InvalidInput(f"alpha must be in (0.5, 1), got {self.alpha}")
        if self.delta != 1.0 - self.alpha:
            raise InvalidInput("delta must equal 1 - alpha exactly")
        if self.m + self.t != self.n or self.m < 1 or self.t < 1:
            raise InvalidInput("m and t must be positive and sum to n")
        if self.c_alpha <= 0 or abs((1.5 - self.alpha) ** self.c_alpha - 0.5) > 0.5 * 1e-12:
            raise InvalidInput("c_alpha fails its defining identity")
        if not 0 < self.k:
            raise InvalidInput("k must be positive")
        if self.L < 0 or self.tau < 1:
            raise InvalidInput("tau must be positive and L non-negative")
        if self.mode == STRICT and not self.q < 1.0:
            raise StrictModeViolation(f"q = {self.q} >= 1 is not allowed in strict mode")

    @property
    def coin_prob(self) -> float:
        """The per-coin success rate epsilon / sqrt(n) used by every oracle."""
        return coin_rate(self.epsilon, self.n)


def coin_rate(epsilon: float, n: int) -> float:
    """The per-coin success rate theta = epsilon / sqrt(n), checked to lie in [0, 1]."""
    if n < 1:
        raise InvalidInput(f"n must be positive, got {n}")
    theta = epsilon / math.sqrt(n)
    if not 0.0 <= theta <= 1.0:
        raise InvalidInput(f"epsilon/sqrt(n) = {theta} outside [0, 1]")
    return theta


def _check_domain(n: int, alpha: float, epsilon: float, mode: str) -> None:
    if mode not in MODES:
        raise InvalidInput(f"mode must be one of {MODES}, got {mode!r}")
    if not isinstance(n, int) or n < 4:
        raise InvalidInput(f"n must be an integer >= 4, got {n!r}")
    if not 0.5 < alpha < 1.0:
        raise InvalidInput(f"alpha must be in (0.5, 1), got {alpha}")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidInput(f"epsilon must be in (0, 1], got {epsilon}")


def derive_params(
    n: int,
    alpha: float,
    epsilon: float,
    mode: str = STRICT,
    k_override: int | None = None,
) -> Params:
    """Derive the full parameter record from the three free inputs.

    Pure: identical inputs give bit-identical records.  ``k_override`` is a
    desk_scale-only escape hatch for experiments that need a junta size
    other than floor(alpha*n); it must lie in [1, n-1].
    """
    _check_domain(n, alpha, epsilon, mode)

    delta = 1.0 - alpha
    p = 0.5
    log2n = math.log2(n)
    sqrtn = math.sqrt(n)
    q_raw = 0.5 + log2n / sqrtn
    warning = False

    if mode == STRICT:
        if q_raw >= 1.0:
            raise StrictModeViolation(f"q = {q_raw} >= 1 at n = {n}")
        q = q_raw
    else:
        q = min(q_raw, Q_CLAMP)
        if q != q_raw:
            warning = True

    eps_floor = 2.0 ** (-(2.0 * alpha - 1.0) * n / 2.0)
    in_eps_window = eps_floor <= epsilon <= EPSILON_MAX_STRICT
    if mode == STRICT and not in_eps_window:
        raise StrictModeViolation(
            f"epsilon = {epsilon} outside [{eps_floor}, {EPSILON_MAX_STRICT}]"
        )
    if mode == DESK_SCALE and not in_eps_window:
        warning = True

    m_raw = round(2.0 * delta * n + delta * sqrtn * log2n)
    if mode == STRICT and not 1 <= m_raw <= n - 1:
        raise StrictModeViolation(f"m = {m_raw} leaves no room for t >= 1 at n = {n}")
    m = min(max(m_raw, 1), n - 1)
    if m != m_raw:
        warning = True
    t = n - m

    alpha_n = alpha * n
    k_default = math.floor(alpha_n + 1e-9)
    if mode == STRICT:
        if k_override is not None:
            raise InvalidInput("k_override is a desk_scale-only option")
        if abs(alpha_n - k_default) > 1e-9:
            raise StrictModeViolation(f"alpha*n = {alpha_n} is not an integer")
        k = k_default
    else:
        if k_override is None:
            k = k_default
        else:
            if not 1 <= k_override <= n - 1:
                raise InvalidInput(f"k_override must be in [1, n-1], got {k_override}")
            k = k_override
            if k != k_default:
                warning = True

    c_alpha = -1.0 / math.log2(1.5 - alpha)
    tau = math.ceil(c_alpha * 5.0 * math.log2(n / epsilon))
    s = n**1.5 / (epsilon * log2n**3 * math.log2(n / epsilon) ** 2)
    L = max(0, math.ceil(math.log2(2.0 * s)))

    return Params(
        n=n, alpha=alpha, epsilon=epsilon, delta=delta, k=k, p=p, q=q,
        m=m, t=t, tau=tau, c_alpha=c_alpha, s=s, L=L, mode=mode, warning=warning,
    )


_INT_FIELDS = {"n", "k", "m", "t", "tau", "L"}
_FLOAT_FIELDS = {"alpha", "epsilon", "delta", "p", "q", "c_alpha", "s"}


def to_config_text(params: Params) -> str:
    """One ``key = value`` line per field, keys exactly as field names."""
    lines = []
    for f in fields(Params):
        value = getattr(params, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def _parse_field(name: str, value: str) -> object:
    """A config value as its field's type; a malformed value is a usage error."""
    try:
        if name in _INT_FIELDS:
            return int(value)
        if name in _FLOAT_FIELDS:
            return float(value)
    except ValueError as exc:
        raise InvalidInput(f"malformed config value: {exc}") from exc
    if name == "warning":
        if value not in ("true", "false"):
            raise InvalidInput(f"warning must be true or false, got {value!r}")
        return value == "true"
    return value


def from_config_text(text: str) -> Params:
    """Parse a config file and re-derive, rejecting corrupted records."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInput(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in raw:
            raise InvalidInput(f"line {lineno}: field {key!r} is repeated")
        raw[key] = value.strip()

    expected = {f.name for f in fields(Params)}
    missing = expected - raw.keys()
    if missing:
        raise InvalidInput(f"config is missing fields: {sorted(missing)}")
    unknown = raw.keys() - expected
    if unknown:
        raise InvalidInput(f"config has unknown fields: {sorted(unknown)}")

    n, alpha, epsilon, k, mode = (
        _parse_field(name, raw[name]) for name in ("n", "alpha", "epsilon", "k", "mode")
    )

    try:
        _check_domain(n, alpha, epsilon, mode)
        k_override = None
        if mode == DESK_SCALE and k != math.floor(alpha * n + 1e-9):
            k_override = k
        derived = derive_params(n, alpha, epsilon, mode, k_override=k_override)
    except OverflowError as exc:
        raise InvalidInput(f"config values out of range: {exc}") from exc

    for f in fields(Params):
        value = raw[f.name]
        parsed = _parse_field(f.name, value)
        if parsed != getattr(derived, f.name):
            raise InvalidInput(
                f"config field {f.name} = {value!r} disagrees with derivation "
                f"({getattr(derived, f.name)!r})"
            )
    return derived


def save(params: Params, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_config_text(params))


def read_text(path: str) -> str:
    """The text of a UTF-8 input file; any other file is InvalidInput."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from exc


def load(path: str) -> Params:
    return from_config_text(read_text(path))
