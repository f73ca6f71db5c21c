"""Calibrated model parameters and the reference parameter file format.

The reference file is plain ``key = value`` text, one field per line, with
``#`` comments (``document_lines``, which run configurations read too).  Keys
must match ModelParams field names exactly; unknown keys are rejected.  A
field with a default in ModelParams may be left out; every other is required.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .numerics import STEPS_PER_YEAR, check_finite, parse_number

MAX_HORIZON_YEARS = 1000  # 100 times the reference horizon: a grid of 100 001 nodes


@dataclass(frozen=True)
class ModelParams:
    """Full calibrated parameter vector for the cost model.

    policy_unit_cost is the dollar value (per year) of one unit of the policy
    expenditure function P(s); the dimensionless intensity gamma multiplies
    gamma * policy_unit_cost * P(s) into the cost integrand.
    health_weight_lambda is accepted (it must be finite), but no engine term
    reads it: the engine has no health-outcome channel yet.
    """

    baseline_cost_C0: float        # dollars, cumulative cost at t=0
    discount_rate_rho: float       # per year, continuous discounting
    disease_max_Dmax: float        # severity asymptote, in (0, 1]
    disease_steepness_k: float     # per year, logistic growth rate
    disease_midpoint_s0: float     # years, logistic inflection time
    disease_cost_alpha: float      # dollars/year per unit severity
    adherence_baseline_A0: float   # fraction in [0, 1]
    adherence_cost_beta: float     # dollars/year per squared adherence unit; < 0 is savings
    health_weight_lambda: float = 0.0   # dollars/year per health-outcome unit
    severity_coupling_eta: float = 0.0  # dimensionless >= 0, adherence -> progression
    policy_unit_cost: float = 1.0       # dollars/year per unit of P(s)
    horizon_T: float = 10.0             # years

    def __post_init__(self) -> None:
        for f in fields(self):
            check_finite(f.name, getattr(self, f.name))
        if self.discount_rate_rho < 0:
            raise ValueError("discount_rate_rho: must be >= 0")
        if self.horizon_T <= 0:
            raise ValueError("horizon_T: must be > 0")
        if self.horizon_T > MAX_HORIZON_YEARS:
            raise ValueError(f"horizon_T: must be <= {MAX_HORIZON_YEARS}")
        steps = self.horizon_T * STEPS_PER_YEAR
        if round(steps) < 1 or abs(round(steps) - steps) > 1e-9:
            # The horizon is the last node of the canonical grid.
            raise ValueError(f"horizon_T: must be a whole number of 1/{STEPS_PER_YEAR}-year "
                             f"steps, got {self.horizon_T!r}")
        if not (0.0 < self.disease_max_Dmax <= 1.0):
            raise ValueError("disease_max_Dmax: must be in (0, 1]")
        if not (0.0 <= self.adherence_baseline_A0 <= 1.0):
            raise ValueError("adherence_baseline_A0: must be in [0, 1]")
        if self.disease_steepness_k <= 0:
            raise ValueError("disease_steepness_k: must be > 0")
        if self.severity_coupling_eta < 0:
            raise ValueError("severity_coupling_eta: must be >= 0")
        if self.policy_unit_cost < 0:
            raise ValueError("policy_unit_cost: must be >= 0")


_FIELD_NAMES = [f.name for f in fields(ModelParams)]
_REQUIRED = [f.name for f in fields(ModelParams) if f.default is MISSING]


def document_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of each ``key = value`` line, in order.

    ``#`` starts a comment; blank and comment-only lines are skipped, and key
    and value are stripped.  A line without ``=`` and a repeated key are
    rejected with their line number, when the reader reaches them; the
    repeated key leads its message, as a key's error does.
    """
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"{key}: duplicate key on line {lineno}")
        seen.add(key)
        yield lineno, key, value.strip()


def parse_params(text: str) -> ModelParams:
    """Parse reference-parameter text into a validated ModelParams."""
    values: dict[str, float] = {}
    for lineno, key, value in document_lines(text):
        if key not in _FIELD_NAMES:
            raise ValueError(f"{key}: unknown key on line {lineno}; valid: {', '.join(_FIELD_NAMES)}")
        try:
            values[key] = parse_number(value)
        except ValueError:
            raise ValueError(f"{key}: not a number on line {lineno}: {value!r}") from None

    missing = [name for name in _REQUIRED if name not in values]
    if missing:
        raise ValueError(f"{', '.join(missing)}: missing required key")
    return ModelParams(**values)


def read_text(key: str, path: str | Path) -> str:
    """The UTF-8 text of the input file that ``key`` names; a file that
    cannot be read is an error of that key."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"{key}: {path} does not exist") from None
    except OSError as exc:
        raise ValueError(f"{key}: cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{key}: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_params(path: str | Path) -> ModelParams:
    """Load and validate a reference parameter file."""
    return parse_params(read_text("params_file", path))


def reference_params() -> ModelParams:
    """The pinned reference parameter vector shipped with the package."""
    return load_params(reference_params_path())


def reference_params_path() -> Path:
    return Path(__file__).parent / "data" / "reference_params.txt"
