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
from dataclasses import dataclass, field, fields, replace

from .scenarios import PRESET_NAMES, PolicyConfig, PolicyKind, build_preset


class RunMode(enum.Enum):
    SIMULATE = "simulate"
    COMPARE = "compare"
    SWEEP = "sweep"
    BREAKEVEN = "breakeven"
    MONTE_CARLO = "mc"
    STRESS = "stress"


_POLICY_OVERRIDE_FIELDS = (
    "start_tau",
    "adherence_gain_delta",
    "cost_scale_gamma",
    "decay_theta",
    "nudge_threshold",
    "nudge_unit_cost",
    "baseline_decay",
    "inflation_factor",
    "progression_compression",
)

_STRESS_KINDS = ("cost_inflation", "accelerated_progression")
_STRESS_DEFAULTS = {"cost_inflation": 1.2, "accelerated_progression": 0.85}


@dataclass(frozen=True)
class RunConfig:
    params_file: str
    scenario: str
    mode: RunMode
    output_dir: str
    seed: int | None = None
    n_draws: int | None = None
    n_workers: int = 1
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
        values = tuple(float(tok) for tok in raw.replace(",", " ").split())
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

    Checked once a document is parsed, or by the CLI once its flags have
    overridden the document's keys.  Every message names the key.
    """
    for key in ("params_file", "output_dir"):
        _check_document_value(key, getattr(config, key))
    valid_scenarios = PRESET_NAMES + ("custom",)
    if config.scenario not in valid_scenarios:
        raise ValueError(
            f"scenario: unknown name {config.scenario!r}; valid: {', '.join(valid_scenarios)}"
        )
    if config.seed is not None and config.seed < 0:
        raise ValueError("seed: must be >= 0")
    if config.n_draws is not None and config.n_draws < 1:
        raise ValueError("n_draws: must be >= 1")
    if config.n_workers < 1:
        raise ValueError("n_workers: must be >= 1")
    if config.stress_kind is not None and config.stress_kind not in _STRESS_KINDS:
        raise ValueError(
            f"stress_kind: unknown kind {config.stress_kind!r}; valid: {', '.join(_STRESS_KINDS)}"
        )
    if config.stress_value is not None:
        value = config.stress_value
        if config.stress_kind is None:
            raise ValueError("stress_value: given without stress_kind")
        if config.stress_kind == "cost_inflation" and not (1.0 <= value < math.inf):
            raise ValueError("stress_value: cost_inflation factor must be finite and >= 1")
        if config.stress_kind == "accelerated_progression" and not (0.0 < value <= 1.0):
            raise ValueError("stress_value: progression compression must be in (0, 1]")

    mode = config.mode
    if mode is RunMode.MONTE_CARLO:
        if config.seed is None:
            raise ValueError("mode=mc requires key: seed")
        if config.n_draws is None:
            raise ValueError("mode=mc requires key: n_draws")
    if mode is RunMode.SWEEP:
        if not config.delta_axis:
            raise ValueError("mode=sweep requires key: delta_axis")
        if not config.gamma_axis:
            raise ValueError("mode=sweep requires key: gamma_axis")
    if mode is RunMode.BREAKEVEN and not config.delta_axis:
        raise ValueError("mode=breakeven requires key: delta_axis")
    if mode is RunMode.STRESS and config.stress_kind is None:
        raise ValueError("mode=stress requires key: stress_kind")
    config.build_policy()  # surfaces out-of-range override values now


def parse_run_config(text: str) -> RunConfig:
    """Parse and fully validate a run-configuration document."""
    config = _parse_document(text)
    validate_run_config(config)
    return config


def _parse_document(text: str) -> RunConfig:
    """Parse a run-configuration document; the mode and range rules are left
    to ``validate_run_config``."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    def take(key: str, kind: type = str):
        value = raw.pop(key, None)
        if value is None or kind is str:
            return value
        try:
            return kind(value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ValueError(f"{key}: expected {expected}, got {value!r}") from None

    def required(key: str) -> str:
        value = take(key)
        if not value:
            raise ValueError(f"missing required key: {key}")
        return value

    params_file = required("params_file")
    scenario = required("scenario").lower()
    mode_raw = required("mode")
    try:
        mode = RunMode(mode_raw.lower())
    except ValueError:
        raise ValueError(
            f"mode: unknown mode {mode_raw!r}; valid: {', '.join(m.value for m in RunMode)}"
        ) from None
    output_dir = required("output_dir")

    seed = take("seed", int)
    n_draws = take("n_draws", int)
    n_workers = take("n_workers", int)
    delta_axis = take("delta_axis")
    gamma_axis = take("gamma_axis")
    stress_kind = take("stress_kind")
    stress_value = take("stress_value", float)

    overrides: dict[str, float] = {}
    for key in list(raw):
        if key.startswith("policy."):
            name = key[len("policy."):]
            if name not in _POLICY_OVERRIDE_FIELDS:
                raise ValueError(
                    f"{key}: unknown policy field; valid: "
                    + ", ".join("policy." + f for f in _POLICY_OVERRIDE_FIELDS)
                )
            overrides[name] = take(key, float)
    if raw:
        raise ValueError(f"unknown key: {', '.join(sorted(raw))}")

    return RunConfig(
        params_file=params_file,
        scenario=scenario,
        mode=mode,
        output_dir=output_dir,
        seed=seed,
        n_draws=n_draws,
        n_workers=1 if n_workers is None else n_workers,
        delta_axis=() if delta_axis is None else _parse_axis("delta_axis", delta_axis),
        gamma_axis=() if gamma_axis is None else _parse_axis("gamma_axis", gamma_axis),
        stress_kind=None if stress_kind is None else stress_kind.lower(),
        stress_value=stress_value,
        policy_overrides=overrides,
    )


def effective_stress_value(config: RunConfig) -> float:
    if config.stress_kind is None:
        raise ValueError("no stress_kind configured")
    if config.stress_value is not None:
        return config.stress_value
    return _STRESS_DEFAULTS[config.stress_kind]


def serialize_run_config(config: RunConfig) -> str:
    """Canonical document form; parse(serialize(c)) == c."""
    lines = [
        f"params_file = {config.params_file}",
        f"scenario = {config.scenario}",
        f"mode = {config.mode.value}",
        f"output_dir = {config.output_dir}",
    ]
    if config.seed is not None:
        lines.append(f"seed = {config.seed}")
    if config.n_draws is not None:
        lines.append(f"n_draws = {config.n_draws}")
    if config.n_workers != 1:
        lines.append(f"n_workers = {config.n_workers}")
    if config.delta_axis:
        lines.append("delta_axis = " + ", ".join(repr(v) for v in config.delta_axis))
    if config.gamma_axis:
        lines.append("gamma_axis = " + ", ".join(repr(v) for v in config.gamma_axis))
    if config.stress_kind is not None:
        lines.append(f"stress_kind = {config.stress_kind}")
    if config.stress_value is not None:
        lines.append(f"stress_value = {config.stress_value!r}")
    for name in sorted(config.policy_overrides):
        lines.append(f"policy.{name} = {config.policy_overrides[name]!r}")
    return "\n".join(lines) + "\n"
