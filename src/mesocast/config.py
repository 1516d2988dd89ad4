"""Run configuration: an INI file with sections mirroring the command
surfaces (data / model / training / evaluation), every field defaulted,
unknown keys rejected so config drift fails loudly.  A section's defaults
are those of the library type it configures (``CtmConfig`` and
``CorpusSizes``, ``build_model``, ``TrainConfig``), and a key is named as
the field it sets, so each setting is spelled once."""

from __future__ import annotations

import configparser
import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .data import MAX_ARRAY_VALUES, MINUTES_PER_DAY, CorpusSizes, CtmConfig
from .models import build_model, check_dims
from .train import TrainConfig

_CTM, _SIZES, _TRAIN = CtmConfig(), CorpusSizes(), TrainConfig()
_DIMS = inspect.signature(build_model).parameters


@dataclass
class DataSection:
    seed: int = _CTM.seed
    free_flow_mph: float = _CTM.free_flow_mph
    wave_speed_mph: float = _CTM.wave_speed_mph
    jam_density: float = _CTM.jam_density
    noise_std_mph: float = _CTM.noise_std_mph
    substeps_per_minute: int = _CTM.substeps_per_minute
    train_days: int = _SIZES.train_days
    easy_days: int = _SIZES.easy_days
    hard_windows: int = _SIZES.hard_windows
    hard_minutes: int = _SIZES.hard_minutes
    train_csv: str = "train.csv"
    easy_csv: str = "easy.csv"
    hard_csv_prefix: str = "hard"


@dataclass
class ModelSection:
    kind: str = "sa-lstm"            # lstm | lstm-seg | sa-lstm | all-at-once | nstep
    s: int = _DIMS["s"].default
    hidden: int = _DIMS["hidden"].default
    attn_width: int = _DIMS["attn_width"].default
    horizon: int = _DIMS["horizon"].default


@dataclass
class TrainingSection:
    """TrainConfig's fields (defaults taken from it), plus the output file
    names."""

    lr: float = _TRAIN.lr
    weight_decay: float = _TRAIN.weight_decay
    plateau_patience: int = _TRAIN.plateau_patience
    lr_decay_factor: float = _TRAIN.lr_decay_factor
    epochs_per_stage: int = _TRAIN.epochs_per_stage
    seed: int = _TRAIN.seed
    validate_every: int = _TRAIN.validate_every
    lap_depth: int = _TRAIN.lap_depth
    train_stride: int = _TRAIN.train_stride
    val_stride: int = _TRAIN.val_stride
    grad_chunk: int = _TRAIN.grad_chunk
    finetune_lr_scale: float = _TRAIN.finetune_lr_scale
    model_out: str = "model.bin"
    checkpoint_out: str = "run.ckpt"
    metrics_csv: str = "metrics.csv"


@dataclass
class EvaluationSection:
    horizons: int = 3
    checkpoint: str = "model.bin"
    report_csv: str = "report.csv"
    budget_ms: float = 1.0
    warmup: int = 1000
    iters: int = 50000

    def validate(self) -> None:
        # at 0 eval and forecast would write no rows; a day of minutes bounds
        # the (horizons, 21) rows a forecast allocates
        if not 1 <= self.horizons <= MINUTES_PER_DAY:
            raise ValueError(f"horizons must be in 1..{MINUTES_PER_DAY}, got {self.horizons}")
        if not 0 < self.budget_ms < math.inf:
            raise ValueError(f"budget_ms must be positive and finite, got {self.budget_ms}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if not 1 <= self.iters <= MAX_ARRAY_VALUES:
            raise ValueError(f"iters must be in 1..{MAX_ARRAY_VALUES}, got {self.iters}")


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)

    def ctm_config(self) -> CtmConfig:
        return CtmConfig(**_declared(CtmConfig, asdict(self.data)))

    def corpus_sizes(self) -> CorpusSizes:
        return CorpusSizes(**_declared(CorpusSizes, asdict(self.data)))

    def train_config(self) -> TrainConfig:
        """The [training] section as a TrainConfig; a value it rejects raises
        a ValueError naming ``training.<key>``."""
        values = _declared(TrainConfig, asdict(self.training))
        return _naming_keys("training", lambda: TrainConfig(**values))

    def validate(self) -> None:
        """Check every section the way the commands use it, without simulating
        or allocating a model; a bad value raises a ValueError naming
        ``<section>.<key>``."""
        _naming_keys("data", lambda: (self.ctm_config().validate(), self.corpus_sizes()))
        _naming_keys("model", lambda: check_dims(**asdict(self.model)))
        self.train_config()
        _naming_keys("evaluation", self.evaluation.validate)


def _declared(cls, values: dict) -> dict:
    """The entries of ``values`` that name a field of the dataclass ``cls``."""
    names = {f.name for f in fields(cls)}
    return {key: value for key, value in values.items() if key in names}


def _naming_keys(section: str, check):
    """``check()``, with its ValueError, which reads "<field> [and <field>]
    must ...", raised again naming each field as ``<section>.<field>``."""
    try:
        return check()
    except ValueError as exc:
        names = str(exc).split(" must ", 1)[0].split(" and ")
        named = " and ".join(f"{section}.{name}" for name in names)
        raise ValueError(f"bad value for {named}: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse an INI run config; unknown sections or keys are errors, and so
    is ``[DEFAULT]``, which is no section of a run.  Values are taken
    literally (no ``%`` interpolation)."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    try:        # a byte that is not UTF-8 was read as a lone surrogate, which does not encode
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        raise ValueError(f"config {path}: line {line} is not UTF-8") from None
    # no header names the empty section, so [DEFAULT] is read as a section
    # (and rejected below), not as defaults spread into every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from None
    cfg = RunConfig()
    sections = [f.name for f in fields(cfg)]
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}], "
                             f"expected one of {sorted(sections)}")
        target = getattr(cfg, section)
        types = {f.name: type(getattr(target, f.name)) for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in types:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            try:
                setattr(target, key, types[key](raw))
            except ValueError as exc:
                raise ValueError(f"bad value for {section}.{key}: {exc}") from None
    cfg.validate()          # so a bad value exits before any CSV is read
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Hash of the fully resolved configuration, recorded in manifests; the
    retired [training] keys are hashed at the only values they still have,
    so a manifest's hash does not move with them."""
    resolved = asdict(cfg)
    resolved["training"].update(lap_weight=1.0, lap_padding="zero")
    canonical = json.dumps(resolved, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
