"""Run configuration: plain key = value documents driving one run each.

Example::

    params_file = params/reference_params.txt
    scenario = early_adherence
    mode = mc
    output_dir = out/mc_early
    seed = 42
    n_draws = 10000
    policy.cost_scale_gamma = 1.5   # optional preset overrides

Unknown keys, missing mode-required keys, and out-of-range values are
rejected with the offending key named.  ``serialize_run_config`` emits a
canonical document that parses back to an equal configuration; so that it
can, ``params_file`` and ``output_dir`` must be one line with no ``#`` and no
surrounding whitespace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, field, fields, replace

from .montecarlo import check_draw_keys
from .numerics import parse_number
from .params import document_lines
from .scenarios import (
    PRESET_NAMES,
    STRESSES,
    PolicyConfig,
    PolicyKind,
    StressKind,
    apply_stress,
    build_preset,
)


class RunMode(enum.Enum):
    SIMULATE = "simulate"
    COMPARE = "compare"
    SWEEP = "sweep"
    BREAKEVEN = "breakeven"
    MONTE_CARLO = "mc"
    STRESS = "stress"


_POLICY_OVERRIDE_FIELDS = tuple(f.name for f in fields(PolicyConfig) if f.name != "kind")
_STRESS_KINDS = tuple(kind.value for kind in StressKind)
# The keys each mode cannot run without.
_MODE_KEYS = {
    RunMode.MONTE_CARLO: ("seed", "n_draws"),
    RunMode.SWEEP: ("delta_axis", "gamma_axis"),
    RunMode.BREAKEVEN: ("delta_axis",),
    RunMode.STRESS: ("stress_kind",),
}


@dataclass(frozen=True)
class RunConfig:
    params_file: str
    scenario: str
    mode: RunMode
    output_dir: str
    seed: int | None = None
    n_draws: int | None = None
    delta_axis: tuple[float, ...] = ()
    gamma_axis: tuple[float, ...] = ()
    stress_kind: str | None = None
    stress_value: float | None = None
    policy_overrides: dict[str, float] = field(default_factory=dict)

    def build_policy(self) -> PolicyConfig:
        if self.scenario == "custom":
            policy = PolicyConfig(kind=PolicyKind.CUSTOM)
        else:
            policy = build_preset(self.scenario)
        if self.policy_overrides:
            policy = replace(policy, **self.policy_overrides)
        return policy


def _parse_axis(key: str, raw: str) -> tuple[float, ...]:
    try:
        values = tuple(map(parse_number, raw.replace(",", " ").split()))
    except ValueError:
        raise ValueError(f"{key}: expected a list of numbers, got {raw!r}") from None
    if not values:
        raise ValueError(f"{key}: must contain at least one value")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{key}: values must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{key}: values must be strictly increasing")
    return values


def _check_document_value(key: str, value: str) -> None:
    """Reject a value that a ``key = value`` line would not carry back unchanged."""
    if value.splitlines() != [value]:
        raise ValueError(f"{key}: must be one non-empty line")
    if "#" in value:
        raise ValueError(f"{key}: must not contain '#', which starts a comment")
    if value != value.strip():
        raise ValueError(f"{key}: must not begin or end with whitespace")


def validate_run_config(config: RunConfig) -> None:
    """Range and mode-requirement rules of a run configuration.

    Checked once ``parse_keys`` has read a document's keys, with any flags
    laid over them by the CLI.  Every message names the key.
    """
    for key in ("params_file", "output_dir"):
        _check_document_value(key, getattr(config, key))
    valid_scenarios = PRESET_NAMES + ("custom",)
    if config.scenario not in valid_scenarios:
        raise ValueError(
            f"scenario: unknown name {config.scenario!r}; valid: {', '.join(valid_scenarios)}"
        )
    check_draw_keys(config.seed, config.n_draws)
    if not all(0.0 <= delta <= 1.0 for delta in config.delta_axis):
        raise ValueError("delta_axis: values must be in [0, 1]")
    if config.stress_kind is not None and config.stress_kind not in _STRESS_KINDS:
        raise ValueError(
            f"stress_kind: unknown kind {config.stress_kind!r}; valid: {', '.join(_STRESS_KINDS)}"
        )
    if config.stress_value is not None:
        if config.stress_kind is None:
            raise ValueError("stress_value: given without stress_kind")
        try:
            apply_stress(PolicyConfig(PolicyKind.BASELINE), StressKind(config.stress_kind), config.stress_value)
        except ValueError as exc:
            raise ValueError(f"stress_value: {str(exc).partition(': ')[2]}") from None

    for key in _MODE_KEYS.get(config.mode, ()):
        value = getattr(config, key)
        if value is None or isinstance(value, tuple) and not value:
            raise ValueError(f"mode={config.mode.value} requires key: {key}")
    try:
        config.build_policy()
    except ValueError as exc:
        # Only an override can be out of range, and PolicyConfig's message
        # begins with its field: "start_tau: must be >= 0".
        if str(exc).partition(":")[0] not in config.policy_overrides:
            raise
        raise ValueError(f"policy.{exc}") from None


def parse_run_config(text: str) -> RunConfig:
    """Parse and fully validate a run-configuration document."""
    config = parse_keys({key: value for _, key, value in document_lines(text)})
    validate_run_config(config)
    return config


def parse_value(key: str, text: str):
    """One key's value from its text, as a document line or a flag gives it."""
    if key in ("params_file", "output_dir"):
        return text
    if key in ("delta_axis", "gamma_axis"):
        return _parse_axis(key, text)
    if key == "mode":
        try:
            return RunMode(text.lower())
        except ValueError:
            raise ValueError(
                f"mode: unknown mode {text!r}; valid: {', '.join(m.value for m in RunMode)}"
            ) from None
    if key in ("seed", "n_draws"):
        kind, expected = int, "an integer"
    elif key == "stress_value" or key.startswith("policy."):
        kind, expected = float, "a number"
    else:
        return text.lower()
    try:
        return parse_number(text, kind)
    except ValueError:
        raise ValueError(f"{key}: expected {expected}, got {text!r}") from None


# Every key, mapped to whether a run needs it: the RunConfig fields in order,
# a field with no default being required, then one policy.<field> key per
# preset override.
_KEYS = {f.name: f.default is MISSING for f in fields(RunConfig) if f.name != "policy_overrides"}
_KEYS.update(("policy." + name, False) for name in _POLICY_OVERRIDE_FIELDS)


def parse_keys(raw: dict[str, str]) -> RunConfig:
    """A configuration from each key's text; the mode and range rules are left
    to ``validate_run_config``."""
    unknown = raw.keys() - _KEYS.keys()
    if unknown:
        raise ValueError(f"unknown key: {', '.join(sorted(unknown))}; valid: {', '.join(_KEYS)}")
    values, overrides = {}, {}
    for key, required in _KEYS.items():
        text = raw.get(key)
        if required and not text:
            raise ValueError(f"missing required key: {key}")
        if text is not None:
            target = overrides if key.startswith("policy.") else values
            target[key.removeprefix("policy.")] = parse_value(key, text)
    return RunConfig(**values, policy_overrides=overrides)


def effective_stress_value(config: RunConfig) -> float:
    if config.stress_kind is None:
        raise ValueError("no stress_kind configured")
    if config.stress_value is not None:
        return config.stress_value
    return STRESSES[StressKind(config.stress_kind)][1]


def serialize_run_config(config: RunConfig) -> str:
    """Canonical document form: one line per set key in field order, the
    policy overrides sorted by name; parse(serialize(c)) == c."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name == "policy_overrides":
            lines += [f"policy.{name} = {value[name]!r}" for name in sorted(value)]
        elif isinstance(value, tuple):
            if value:
                lines.append(f"{f.name} = " + ", ".join(map(repr, value)))
        elif value is not None:
            lines.append(f"{f.name} = {value.value if isinstance(value, RunMode) else value}")
    return "\n".join(lines) + "\n"
