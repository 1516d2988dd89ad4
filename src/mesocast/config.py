"""Run configuration: an INI file with sections mirroring the command
surfaces (data / model / training / evaluation), every field defaulted,
unknown keys rejected so config drift fails loudly."""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

from .data import MAX_ARRAY_VALUES, CorpusSizes, CtmConfig
from .losses import LossConfig
from .models import check_dims
from .train import TrainConfig


@dataclass
class DataSection:
    seed: int = 0
    free_flow_mph: float = 70.0
    wave_speed_mph: float = 15.0
    jam_density: float = 110.0
    noise_std_mph: float = 1.5
    substeps_per_minute: int = 4
    train_days: int = 35
    easy_days: int = 6
    hard_windows: int = 4
    hard_minutes: int = 440
    train_csv: str = "train.csv"
    easy_csv: str = "easy.csv"
    hard_csv_prefix: str = "hard"


@dataclass
class ModelSection:
    kind: str = "sa-lstm"            # lstm | lstm-seg | sa-lstm | all-at-once | nstep
    s: int = 8
    hidden: int = 64
    attn_width: int = 16
    horizon: int = 3


_TRAIN = TrainConfig()


@dataclass
class TrainingSection:
    """TrainConfig's fields (defaults taken from it) with the loss settings
    flattened to lap_*, plus the output file names."""

    lr: float = _TRAIN.lr
    weight_decay: float = _TRAIN.weight_decay
    plateau_patience: int = _TRAIN.plateau_patience
    lr_decay_factor: float = _TRAIN.lr_decay_factor
    epochs_per_stage: int = _TRAIN.epochs_per_stage
    seed: int = _TRAIN.seed
    validate_every: int = _TRAIN.validate_every
    lap_depth: int = _TRAIN.loss.pyramid_depth
    lap_weight: float = _TRAIN.loss.lap_weight
    lap_padding: str = _TRAIN.loss.padding_mode
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
        # eval and forecast would write a table or a forecast with no rows
        if self.horizons < 1:
            raise ValueError(f"horizons must be >= 1, got {self.horizons}")
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
        return CtmConfig(
            free_flow_mph=self.data.free_flow_mph,
            wave_speed_mph=self.data.wave_speed_mph,
            jam_density=self.data.jam_density,
            noise_std_mph=self.data.noise_std_mph,
            substeps_per_minute=self.data.substeps_per_minute,
            seed=self.data.seed,
        )

    def corpus_sizes(self) -> CorpusSizes:
        return CorpusSizes(
            train_days=self.data.train_days,
            easy_days=self.data.easy_days,
            hard_windows=self.data.hard_windows,
            hard_minutes=self.data.hard_minutes,
        )

    def train_config(self) -> TrainConfig:
        """The [training] section as a TrainConfig; a value it rejects raises
        a ValueError naming ``training.<key>``."""
        values = asdict(self.training)
        for name in ("model_out", "checkpoint_out", "metrics_csv"):
            del values[name]
        loss = {name: values.pop(key) for name, key in _LOSS_KEYS.items()}
        return _naming_keys("training", lambda: TrainConfig(loss=LossConfig(**loss), **values),
                            _LOSS_KEYS)

    def validate(self) -> None:
        """Check every section the way the commands use it, without simulating
        or allocating a model; a bad value raises a ValueError naming
        ``<section>.<key>``."""
        _naming_keys("data", lambda: (self.ctm_config().validate(), self.corpus_sizes()))
        _naming_keys("model", lambda: check_dims(**asdict(self.model)))
        self.train_config()
        _naming_keys("evaluation", self.evaluation.validate)

    def resolved(self) -> dict:
        return {
            "data": asdict(self.data),
            "model": asdict(self.model),
            "training": asdict(self.training),
            "evaluation": asdict(self.evaluation),
        }


# LossConfig field -> [training] key
_LOSS_KEYS = {"pyramid_depth": "lap_depth", "lap_weight": "lap_weight",
              "padding_mode": "lap_padding"}


def _naming_keys(section: str, check, keys: dict | None = None):
    """``check()``, with its ValueError, which reads "<field> [and <field>]
    must ...", raised again naming each field as ``<section>.<key>``; a field
    is its own key unless ``keys`` maps it."""
    try:
        return check()
    except ValueError as exc:
        names = str(exc).split(" must ", 1)[0].split(" and ")
        named = " and ".join(f"{section}.{(keys or {}).get(n, n)}" for n in names)
        raise ValueError(f"bad value for {named}: {exc}") from None


_SECTIONS = {
    "data": DataSection,
    "model": ModelSection,
    "training": TrainingSection,
    "evaluation": EvaluationSection,
}


def load_config(path) -> RunConfig:
    """Parse an INI run config; unknown sections or keys are errors.  Values
    are taken literally (no ``%`` interpolation)."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"malformed config: {exc}") from None
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}], "
                             f"expected one of {sorted(_SECTIONS)}")
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
    """Hash of the fully resolved configuration, recorded in manifests."""
    canonical = json.dumps(cfg.resolved(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
