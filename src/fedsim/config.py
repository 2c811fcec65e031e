"""Declarative experiment configuration: JSON schema, defaults, presets.

A config file describes the federation topology, data distribution,
weighting scheme, trigger policy and simulation profile. Each section is a
dataclass read field by field from the JSON key of its name. The dataset,
the size distribution, the class assignment and the trigger name a
``kind``, and each kind is its own dataclass, so a key of another kind is
rejected like any unknown key. Parsing fills defaults, rejects unknown keys
and reports errors with their field path. The resolved config serializes
back to a canonical dict, field by field, which is what the run manifest
stores so any run can be reproduced byte-for-byte.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, ClassVar, Union, get_args, get_origin, get_type_hints

from .data import SizeDistribution, UniformSizes, compute_sizes
from .learner import AdaptivePolicy, FixedPolicy, Hyperparameters, TriggerPolicy
from .nn import MLP_1HIDDEN, MODEL_KINDS, SOFTMAX_REGRESSION
from .weighting import SCHEMES, FedAsyncParams

SPEED_GROUPS = ("fast", "slow")
DEFAULT_RATES = {
    "fast": {"steps_per_second": 100.0, "eval_samples_per_second": 2000.0},
    "slow": {"steps_per_second": 20.0, "eval_samples_per_second": 400.0},
}

# Named per-rank class-count expansions for power-law experiments where the
# head learners hold data from extra classes.
CLASS_COUNT_PRESETS: dict[str, list[int]] = {
    "noniid-8x1-7x1-6x1-5x7": [8, 7, 6, 5, 5, 5, 5, 5, 5, 5],
    "noniid-8x1-4x1-3x8": [8, 4, 3, 3, 3, 3, 3, 3, 3, 3],
    "noniid-84x1-76x1-68x1-64x1-55x1-50x5": [84, 76, 68, 64, 55, 50, 50, 50, 50, 50],
}


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _typed(where: str, value: Any, types):
    """``value`` read as ``types``: a JSON type or a tuple of them, a
    dataclass or ``_Section`` (read from an object), ``[X]``, a list read
    element by element as ``X`` into a tuple, a ``Union`` of dataclasses,
    read as the one whose ``kind`` the object names, or ``dict[str, X]``, an
    object of one ``X`` per speed group or one ``X`` for both. An integer
    stands for a float. Booleans are not integers, and floats must be finite:
    Python's JSON reader accepts ``NaN`` and ``Infinity``, which pass every
    range check."""
    if isinstance(types, list):
        items = _typed(where, value, list)
        return tuple(_typed(f"{where}[{i}]", v, types[0]) for i, v in enumerate(items))
    if types is _Section or hasattr(types, "__dataclass_fields__"):
        sec = _Section(value, where)
        return sec if types is _Section else sec.read(types)
    origin = get_origin(types)
    if origin is Union:
        sec = _Section(value, where)
        kinds = {cls.kind: cls for cls in get_args(types)}
        kind = sec.take("kind", str, required=True)
        if kind not in kinds:
            raise ConfigError(f"{where}.kind: expected {'/'.join(kinds)}, got {kind!r}")
        return sec.read(kinds[kind])
    if origin is dict:
        item = get_args(types)[1]
        if not isinstance(value, Mapping):
            return dict.fromkeys(SPEED_GROUPS, _typed(where, value, item))
        sec = _Section(value, where)
        per_group = {group: sec.take(group, item, required=True) for group in SPEED_GROUPS}
        sec.finish()
        return per_group
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if types is int and isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got a boolean")
    if not isinstance(value, types):
        expected = types.__name__ if isinstance(types, type) else "/".join(
            t.__name__ for t in types
        )
        raise ConfigError(f"{where}: expected {expected}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    return value


def _json_type(hint):
    """The type ``_typed`` reads for a field annotated ``hint``: ``X | None``
    reads as ``X``, and ``tuple[X, ...]`` as ``[X]``."""
    args = [t for t in get_args(hint) if t is not type(None)]
    if get_origin(hint) is tuple:
        return [_json_type(args[0])]
    return _json_type(args[0]) if len(args) == 1 else hint


@functools.cache
def _schema(cls) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type read, required) of each field of dataclass ``cls``, in
    field order (``_json_type``); a field without a default or a default
    factory is required. Cached: type hints are costly to resolve."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _json_type(hints[f.name]), f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _plain(value):
    """``value`` as JSON: a dataclass as an object of its ``kind`` and then
    its fields, in order; a tuple as a list."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if not hasattr(value, "__dataclass_fields__"):
        return value
    head = {"kind": value.kind} if hasattr(value, "kind") else {}
    return head | {f.name: _plain(getattr(value, f.name)) for f in fields(value)}


class _Section:
    """Dict wrapper that tracks consumed keys and builds field-path errors."""

    def __init__(self, raw: Mapping[str, Any], path: str) -> None:
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{path}: expected an object")
        self.raw = dict(raw)
        self.path = path
        self._seen: set[str] = set()

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, types, default=..., required: bool = False):
        self._seen.add(key)
        value = self.raw.get(key)
        if value is None:  # absent and explicit JSON null are equivalent
            if required:
                raise ConfigError(f"{self.where(key)}: missing required field")
            return None if default is ... else default
        return _typed(self.where(key), value, types)

    def section(self, key: str, required: bool = False) -> "_Section | None":
        return self.take(key, _Section, required=required)

    def finish(self) -> None:
        unknown = sorted(set(self.raw) - self._seen)
        if unknown:
            where = self.path or "config"
            raise ConfigError(f"{where}: unknown keys {unknown}")

    def build(self, cls, /, **values):
        """Finish the section and construct ``cls`` from the values the JSON
        set; ``cls`` supplies the defaults and the range checks. Its
        ``ValueError`` is reported at this section's path, or at a field of
        ``cls`` that the message starts with (``"name: ..."``,
        ``"per_learner_classes[1]: ..."``)."""
        self.finish()
        try:
            return cls(**{name: v for name, v in values.items() if v is not None})
        except ValueError as exc:
            message = str(exc)
            head = message.partition(":")[0].partition("[")[0]
            if any(head == name for name, _, _ in _schema(cls)):
                raise ConfigError(self.where(message)) from exc
            raise ConfigError(f"{self.path}: {message}" if self.path else message) from exc

    def read(self, cls, /, **values):
        """``build`` ``cls`` with each field that ``values`` does not set
        read under its own name as its annotated type (``_schema``)."""
        for name, types, required in _schema(cls):
            if name not in values:
                values[name] = self.take(name, types, required=required)
        return self.build(cls, **values)


@dataclass(frozen=True)
class BlobsSpec:
    kind: ClassVar[str] = "blobs"
    input_dim: int
    num_classes: int
    train_samples_per_class: int
    test_samples_per_class: int = 200
    spread: float = 0.35

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.input_dim == 1 and self.num_classes > 2:
            raise ValueError("1-D features admit at most two distinct unit-norm class centers")
        if self.train_samples_per_class < 1 or self.test_samples_per_class < 1:
            raise ValueError("train/test_samples_per_class must be >= 1")
        if self.spread < 0:
            raise ValueError("spread must be >= 0")


@dataclass(frozen=True)
class IdxSpec:
    kind: ClassVar[str] = "idx"
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    num_classes: int | None = None

    def __post_init__(self) -> None:
        if self.num_classes is not None and self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


DatasetSpec = Union[BlobsSpec, IdxSpec]


@dataclass(frozen=True)
class ModelConfig:
    kind: str = SOFTMAX_REGRESSION
    hidden_dim: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {list(MODEL_KINDS)}, got {self.kind!r}")
        if self.kind == MLP_1HIDDEN and self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1 for mlp-1hidden")


@dataclass(frozen=True)
class SpeedProfile:
    """A learner's hardware group and its virtual compute rates."""

    group: str
    steps_per_second: float
    eval_samples_per_second: float

    def __post_init__(self) -> None:
        if self.group not in SPEED_GROUPS:
            raise ValueError(f"group must be 'fast' or 'slow', got {self.group!r}")
        if self.steps_per_second <= 0 or self.eval_samples_per_second <= 0:
            raise ValueError(
                f"rates must be positive (steps_per_second={self.steps_per_second}, "
                f"eval_samples_per_second={self.eval_samples_per_second})"
            )


# The class assignment names each learner's data classes, one dataclass per
# kind. ``ExperimentConfig`` checks the learner count; ``resolve`` returns each
# rank's sorted classes and checks them against the dataset's class count, at
# parse when the config declares that count and otherwise at build.


@dataclass(frozen=True)
class IidClasses:
    """Every learner holds every class."""

    kind: ClassVar[str] = "iid"

    def resolve(self, num_learners: int, num_classes: int) -> tuple[tuple[int, ...], ...]:
        return (tuple(range(num_classes)),) * num_learners


@dataclass(frozen=True)
class RotationClasses:
    """Learner k holds classes {(k*x + j) mod C}, x = ``classes_per_learner``:
    full coverage, deterministic."""

    kind: ClassVar[str] = "noniid"
    classes_per_learner: int

    def __post_init__(self) -> None:
        if self.classes_per_learner < 1:
            raise ValueError("classes_per_learner: must be >= 1")

    def resolve(self, num_learners: int, num_classes: int) -> tuple[tuple[int, ...], ...]:
        x = self.classes_per_learner
        if x > num_classes:
            raise ValueError(f"{x} classes per learner outside [1, {num_classes}]")
        return tuple(
            tuple(sorted((k * x + j) % num_classes for j in range(x))) for k in range(num_learners)
        )


@dataclass(frozen=True)
class PresetClasses:
    """The per-rank class counts named in ``CLASS_COUNT_PRESETS``; each rank
    takes its count of classes round-robin, after the previous rank's."""

    kind: ClassVar[str] = "preset"
    name: str

    def __post_init__(self) -> None:
        if self.name not in CLASS_COUNT_PRESETS:
            raise ValueError(
                f"name: unknown preset {self.name!r}; available: {sorted(CLASS_COUNT_PRESETS)}"
            )

    def resolve(self, num_learners: int, num_classes: int) -> tuple[tuple[int, ...], ...]:
        lists, start = [], 0
        for count in CLASS_COUNT_PRESETS[self.name]:
            if count > num_classes:
                raise ValueError(f"class count {count} outside [1, {num_classes}]")
            lists.append(tuple(sorted((start + j) % num_classes for j in range(count))))
            start = (start + count) % num_classes
        return tuple(lists)


@dataclass(frozen=True)
class ExplicitClasses:
    """Each rank's classes as listed; the written lists are kept as written."""

    kind: ClassVar[str] = "explicit"
    per_learner_classes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for i, classes in enumerate(self.per_learner_classes):
            if not classes:
                raise ValueError(f"per_learner_classes[{i}]: learner {i} has an empty class list")
            if min(classes) < 0:
                raise ValueError(
                    f"per_learner_classes[{i}]: learner {i} has a negative class index"
                )

    def resolve(self, num_learners: int, num_classes: int) -> tuple[tuple[int, ...], ...]:
        for rank, classes in enumerate(self.per_learner_classes):
            if max(classes) >= num_classes:
                raise ValueError(f"rank {rank} references a class outside [0, {num_classes})")
        return tuple(tuple(sorted(set(classes))) for classes in self.per_learner_classes)


ClassesSpec = Union[IidClasses, RotationClasses, PresetClasses, ExplicitClasses]


def _per_group(value) -> Any:
    return field(default_factory=lambda: dict.fromkeys(SPEED_GROUPS, value))


@dataclass(frozen=True)
class AdaptiveTrigger:
    """The adaptive trigger as written: validation-loss and tombstone
    thresholds per speed group, a shared warm-up and cap, and the fixed
    ``uf`` of a grid's other schemes. It builds each group's policy once
    (``policies``), and the fixed one (``fixed``)."""

    kind: ClassVar[str] = "adaptive"
    vc_loss: dict[str, float] = _per_group(AdaptivePolicy.vc_loss)
    vc_tomb: dict[str, int] = _per_group(AdaptivePolicy.vc_tomb)
    warmup_cycles: int = AdaptivePolicy.warmup_cycles
    max_epochs_per_cycle: int = AdaptivePolicy.max_epochs_per_cycle
    fixed_uf: int = FixedPolicy.uf

    def __post_init__(self) -> None:
        try:
            fixed = FixedPolicy(self.fixed_uf)
        except ValueError as exc:
            raise ValueError(f"fixed_uf: {exc}") from None
        policies = {
            group: AdaptivePolicy(
                self.vc_loss[group], self.vc_tomb[group], self.warmup_cycles,
                self.max_epochs_per_cycle,
            )
            for group in SPEED_GROUPS
        }
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "policies", policies)


Trigger = Union[FixedPolicy, AdaptiveTrigger]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A resolved experiment, its fields in the manifest's order.
    ``config_from_dict`` reads each field from the JSON key of its name and
    checks ``num_learners`` before ``speed_profiles``, sized by it; the
    root's other range checks run here, and fields left unset take their
    defaults. The learner count is checked against a pool of known size
    before anything is built per learner."""

    name: str = "experiment"
    seed: int = 1990
    num_learners: int
    dataset: DatasetSpec
    model: ModelConfig = ModelConfig()
    # unset: all fast, default rates; the shorthand, read as a function of the learner count
    speed_profiles: tuple[SpeedProfile, ...] | Callable[[int], tuple] | None = None
    size_distribution: SizeDistribution = UniformSizes()
    class_assignment: ClassesSpec = IidClasses()
    validation_fraction: float = 0.05
    scheme: str = "sync_fedavg"
    trigger: Trigger = FixedPolicy()
    hyperparameters: Hyperparameters = Hyperparameters()
    fedasync: FedAsyncParams = FedAsyncParams()
    proximal_mu: float = 0.0  # as written; hyperparameters.proximal_mu is what trains
    time_budget: float = 60.0
    max_versions: int | None = None
    summary_times: tuple[float, ...] | None = None  # unset: (time_budget,)
    summary_rounds: tuple[int, ...] = ()
    schemes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed: must be non-negative")
        if self.seed >= 2**128:  # the model's initial weights come from Philox(key=seed)
            raise ValueError("seed: must be < 2**128")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction: must lie strictly between 0 and 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme: expected one of {list(SCHEMES)}, got {self.scheme!r}")
        if self.schemes == ():
            raise ValueError("schemes: must list at least one scheme")
        for s in self.schemes or ():
            if s not in SCHEMES:
                raise ValueError(f"schemes: unknown scheme {s!r}")
        if self.schemes and len(set(self.schemes)) != len(self.schemes):
            raise ValueError("schemes: duplicate entries")
        if self.trigger.kind == "adaptive" and self.schemes is None and self.scheme != "async_dvw":
            raise ValueError(
                "trigger.kind: the adaptive policy requires scheme 'async_dvw' "
                f"(got {self.scheme!r})"
            )
        if self.time_budget <= 0:
            raise ValueError("time_budget: must be positive")
        if self.max_versions is not None and self.max_versions < 1:
            raise ValueError("max_versions: must be >= 1")
        assignment, n = self.class_assignment, self.num_learners
        total = self.size_distribution.total
        if total is None and self.dataset.kind == "blobs":  # an IDX pool is its file's
            total = self.dataset.num_classes * self.dataset.train_samples_per_class
        if total is not None:
            try:
                compute_sizes(self.size_distribution, n, total)
            except ValueError as exc:
                raise ValueError(f"size_distribution: {exc}") from None
        if assignment.kind == "preset" and len(CLASS_COUNT_PRESETS[assignment.name]) != n:
            raise ValueError(
                f"class_assignment.name: {assignment.name!r} defines "
                f"{len(CLASS_COUNT_PRESETS[assignment.name])} learners but num_learners={n}"
            )
        if assignment.kind == "explicit" and len(assignment.per_learner_classes) != n:
            raise ValueError(
                f"class_assignment.per_learner_classes: "
                f"{len(assignment.per_learner_classes)} lists for {n} learners"
            )
        classes = self.dataset.num_classes  # None: an IDX file's, known once it is read
        if classes is not None:
            try:
                assignment.resolve(n, classes)
            except ValueError as exc:  # every kind that can fail reads one field
                raise ValueError(f"class_assignment.{fields(assignment)[0].name}: {exc}") from None
        # FedAsync brings its own divergence regularizer, rho; an explicit
        # proximal_mu wins.
        mu = self.proximal_mu or (self.fedasync.rho if self.scheme == "fedasync_poly" else 0.0)
        derived = {"hyperparameters": replace(self.hyperparameters, proximal_mu=mu)}
        if self.speed_profiles is None:
            derived["speed_profiles"] = (SpeedProfile("fast", **DEFAULT_RATES["fast"]),) * n
        elif callable(self.speed_profiles):  # expanded only once n has passed its checks
            derived["speed_profiles"] = self.speed_profiles(n)
        if self.summary_times is None:
            derived["summary_times"] = (self.time_budget,)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def policy_for(self, group: str) -> TriggerPolicy:
        """The trigger policy of a learner in speed ``group``: its group's
        adaptive policy under async_dvw, otherwise the fixed one."""
        trigger = self.trigger
        if trigger.kind == "fixed":
            return trigger
        return trigger.policies[group] if self.scheme == "async_dvw" else trigger.fixed

    def with_scheme(self, scheme: str) -> "ExperimentConfig":
        """The grid cell of ``scheme``, with the fixed trigger unless it is
        async_dvw; ``__post_init__`` derives the cell's proximal mu again."""
        trigger = self.trigger
        if trigger.kind == "adaptive" and scheme != "async_dvw":
            trigger = trigger.fixed
        return replace(self, scheme=scheme, schemes=None, trigger=trigger)

    def to_dict(self) -> dict:
        """Each field as JSON (``_plain``), in order. The hyperparameters are
        written as read, {eta, gamma, beta}; unset ``schemes`` is omitted."""
        d = {f.name: _plain(getattr(self, f.name)) for f in fields(self)}
        hp = self.hyperparameters
        d["hyperparameters"] = {"eta": hp.eta, "gamma": hp.gamma, "beta": hp.batch_size}
        if self.schemes is None:
            del d["schemes"]
        return d


def _parse_profiles(raw: Any, num_learners: int):
    path = "speed_profiles"
    if isinstance(raw, list):
        if len(raw) != num_learners:
            raise ConfigError(f"{path}: {len(raw)} profiles for {num_learners} learners")
        return _typed(path, raw, [SpeedProfile])
    if raw is None:
        return None
    sec = _Section(raw, path)
    num_fast = sec.take("num_fast", int, default=num_learners)
    group_secs = {group: sec.section(group) for group in SPEED_GROUPS}
    sec.finish()
    if not (0 <= num_fast <= num_learners):
        raise ConfigError(f"{path}.num_fast: must lie in [0, num_learners]")
    fast, slow = (
        _group_profile(group_secs[group], group) for group in SPEED_GROUPS
    )
    return lambda n: (fast,) * num_fast + (slow,) * (n - num_fast)


def _group_profile(sec: _Section | None, group: str) -> SpeedProfile:
    """One group of the shorthand form; unset rates take the group's default."""
    defaults = DEFAULT_RATES[group]
    if sec is None:
        return SpeedProfile(group, **defaults)
    rates = {key: sec.take(key, float, default=value) for key, value in defaults.items()}
    return sec.build(SpeedProfile, group=group, **rates)


def config_from_dict(raw: Mapping[str, Any]) -> ExperimentConfig:
    """Read a JSON config into ``ExperimentConfig``. Each field is read under
    its own key (``_Section.read``), a sectioned one by its ``kind``
    (``_typed``); only the sections that are not one key per field are read
    here."""
    root = _Section(raw, "")
    num_learners = root.take("num_learners", int, required=True)
    if num_learners < 1:  # before speed_profiles, sized by it
        raise ConfigError("num_learners: must be >= 1")
    hp_sec = root.section("hyperparameters")
    return root.read(
        ExperimentConfig,
        num_learners=num_learners,
        speed_profiles=_parse_profiles(root.take("speed_profiles", (dict, list)), num_learners),
        hyperparameters=None if hp_sec is None else hp_sec.read(
            Hyperparameters, batch_size=hp_sec.take("beta", int), proximal_mu=None
        ),
    )


def parse_config(path: str) -> ExperimentConfig:
    """Load, validate and default-fill a JSON experiment config."""
    try:
        with open(path, "r") as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(raw)

# ---------------------------------------------------------------------------
# Desk-scale presets: three data-size regimes crossed with IID / non-IID
# class assignments over synthetic blobs, small enough to run in seconds.
# ---------------------------------------------------------------------------

_HETERO_PROFILES = {
    "num_fast": 5,
    "fast": {"steps_per_second": 100.0, "eval_samples_per_second": 2000.0},
    "slow": {"steps_per_second": 20.0, "eval_samples_per_second": 400.0},
}

_BLOBS_SMALL = {
    "kind": "blobs",
    "input_dim": 8,
    "num_classes": 4,
    "train_samples_per_class": 1200,
    "test_samples_per_class": 250,
    "spread": 0.45,
}

PRESETS: dict[str, dict] = {
    "blobs-uniform-iid": {
        "name": "blobs-uniform-iid",
        "num_learners": 10,
        "dataset": dict(_BLOBS_SMALL),
        "size_distribution": {"kind": "uniform", "total": 4000},
        "class_assignment": {"kind": "iid"},
        "scheme": "sync_fedavg",
        "trigger": {"kind": "fixed", "uf": 4},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "time_budget": 40.0,
        "max_versions": 50,
        "summary_rounds": [50],
    },
    "blobs-uniform-noniid2": {
        "name": "blobs-uniform-noniid2",
        "num_learners": 10,
        "dataset": dict(_BLOBS_SMALL),
        "size_distribution": {"kind": "uniform", "total": 4000},
        "class_assignment": {"kind": "noniid", "classes_per_learner": 2},
        "scheme": "sync_dvw",
        "trigger": {"kind": "fixed", "uf": 4},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "time_budget": 40.0,
        "max_versions": 30,
    },
    "blobs-skewed-iid": {
        "name": "blobs-skewed-iid",
        "num_learners": 10,
        "dataset": dict(_BLOBS_SMALL),
        "speed_profiles": dict(_HETERO_PROFILES),
        "size_distribution": {"kind": "skewed", "total": 4000, "decay": 0.8},
        "class_assignment": {"kind": "iid"},
        "scheme": "async_fedavg",
        "trigger": {"kind": "fixed", "uf": 4},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "time_budget": 25.0,
        "max_versions": 400,
    },
    "blobs-powerlaw-iid": {
        "name": "blobs-powerlaw-iid",
        "num_learners": 10,
        "dataset": dict(_BLOBS_SMALL),
        "speed_profiles": dict(_HETERO_PROFILES),
        "size_distribution": {"kind": "powerlaw", "total": 4000, "exponent": 1.5},
        "class_assignment": {"kind": "iid"},
        "scheme": "fedasync_poly",
        "trigger": {"kind": "fixed", "uf": 4},
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "fedasync": {"alpha": 0.5, "a": 0.5, "rho": 0.005},
        "time_budget": 25.0,
        "max_versions": 400,
    },
    "blobs-powerlaw-noniid": {
        "name": "blobs-powerlaw-noniid",
        "num_learners": 10,
        "dataset": dict(_BLOBS_SMALL, train_samples_per_class=2000),
        "speed_profiles": dict(_HETERO_PROFILES),
        "size_distribution": {"kind": "powerlaw", "total": 4000, "exponent": 1.5},
        "class_assignment": {"kind": "noniid", "classes_per_learner": 2},
        "scheme": "async_dvw",
        "schemes": ["sync_fedavg", "async_fedavg", "sync_dvw", "async_dvw", "fedasync_poly"],
        "trigger": {
            "kind": "adaptive",
            "vc_loss": {"fast": 0.0, "slow": 1.0},
            "vc_tomb": {"fast": 4, "slow": 1},
            "warmup_cycles": 20,
            "max_epochs_per_cycle": 32,
            "fixed_uf": 4,
        },
        "hyperparameters": {"eta": 0.05, "gamma": 0.75, "beta": 100},
        "fedasync": {"alpha": 0.5, "a": 0.5, "rho": 0.005},
        "time_budget": 25.0,
    },
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    try:
        return json.loads(json.dumps(PRESETS[name]))
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {preset_names()}"
        ) from None
