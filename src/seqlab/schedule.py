"""Learning-rate schedule engine: cosine annealing with warm restarts,
early stopping, and named presets.

This is a pure state machine: no gradients, no optimizer. A training
loop (or an offline simulation) feeds one validation loss per epoch into
`observe_validation` and reads the current rate from `lr_at`. Within a
cycle of length T_i the rate follows the warm-restart cosine form

    lr = min_lr + (max_lr - min_lr) * (1 + cos(pi * T_cur / T_i)) / 2,

jumping back to max_lr at every restart, after which the cycle length is
multiplied by the restart period multiplier. An optional linear warmup
from 0 to max_lr covers the first fraction of the first cycle; the
cosine is then rescaled over the cycle's remainder so the rate stays
continuous.

Early stopping: an observation improves iff loss < best - min_delta
(exact equality does not count). The run stops once the count of epochs
since the last improvement reaches the patience, so a constant loss
stream stops after exactly patience + 1 observations. patience=None
disables early stopping; patience=0 stops right after the first
validation pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NonFiniteLoss, Stopped, UnknownPreset

#: Editable preset table. "original" is the classic short fine-tuning
#: recipe (one cosine half-cycle over few epochs, 10% warmup, no early
#: stopping); "stable" is the low-rate long-run recipe for smaller
#: datasets; "adaptive" enables early stopping plus warm restarts with a
#: growing period, to accommodate any dataset size.
PRESETS: dict[str, dict] = {
    "original": dict(
        max_lr=2e-5,
        min_lr=0.0,
        restart_period_initial=3,
        restart_period_mult=1.0,
        max_epochs=3,
        early_stop_patience=None,
        early_stop_min_delta=0.0,
        warmup_fraction=0.1,
    ),
    "stable": dict(
        max_lr=2e-5,
        min_lr=0.0,
        restart_period_initial=20,
        restart_period_mult=1.0,
        max_epochs=20,
        early_stop_patience=None,
        early_stop_min_delta=0.0,
        warmup_fraction=0.1,
    ),
    "adaptive": dict(
        max_lr=2e-5,
        min_lr=0.0,
        restart_period_initial=3,
        restart_period_mult=2.0,
        max_epochs=100,
        early_stop_patience=5,
        early_stop_min_delta=0.0,
        warmup_fraction=0.0,
    ),
}


class _ScheduleConfigFields(NamedTuple):
    max_lr: float
    min_lr: float
    restart_period_initial: int
    restart_period_mult: float
    max_epochs: int
    early_stop_patience: int | None
    early_stop_min_delta: float
    warmup_fraction: float
    steps_per_epoch: int
    preset: str | None


class ScheduleConfig(_ScheduleConfigFields):
    """Schedule settings, checked as they are built."""

    __slots__ = ()

    def __new__(
        cls,
        max_lr: float,
        min_lr: float = 0.0,
        restart_period_initial: int = 1,
        restart_period_mult: float = 1.0,
        max_epochs: int = 1,
        early_stop_patience: int | None = None,
        early_stop_min_delta: float = 0.0,
        warmup_fraction: float = 0.0,
        steps_per_epoch: int = 1,
        preset: str | None = None,
    ):
        for name, value in (
            ("max_lr", max_lr), ("min_lr", min_lr),
            ("restart_period_mult", restart_period_mult),
            ("early_stop_min_delta", early_stop_min_delta),
        ):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r:.40}")
        for name, value in (
            ("restart_period_initial", restart_period_initial), ("max_epochs", max_epochs),
            ("steps_per_epoch", steps_per_epoch), ("early_stop_patience", early_stop_patience),
        ):
            if type(value) is not int and not (value is None and name == "early_stop_patience"):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if max_lr <= 0:
            raise ValueError("max_lr must be > 0")
        if not 0 <= min_lr <= max_lr:
            raise ValueError("min_lr must satisfy 0 <= min_lr <= max_lr")
        if restart_period_initial < 1:
            raise ValueError("restart_period_initial must be >= 1")
        if restart_period_mult < 1:
            raise ValueError("restart_period_mult must be >= 1")
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if early_stop_patience is not None and early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0 (or None to disable)")
        if early_stop_min_delta < 0:
            raise ValueError("early_stop_min_delta must be >= 0")
        if not 0 <= warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1")
        return super().__new__(
            cls, max_lr, min_lr, restart_period_initial, restart_period_mult, max_epochs,
            early_stop_patience, early_stop_min_delta, warmup_fraction, steps_per_epoch, preset,
        )


class _ScheduleStateFields(NamedTuple):
    cycle_length: int
    epoch: int
    position_in_cycle: int
    best_val_loss: float
    epochs_since_improvement: int
    stopped: bool
    restart_index: int


class ScheduleState(_ScheduleStateFields):
    """The schedule automaton's explicit state; `stopped` is absorbing."""

    __slots__ = ()

    def __new__(
        cls,
        cycle_length: int,
        epoch: int = 0,
        position_in_cycle: int = 0,
        best_val_loss: float = math.inf,
        epochs_since_improvement: int = 0,
        stopped: bool = False,
        restart_index: int = 0,
    ):
        if not 0 <= position_in_cycle <= cycle_length:
            raise ValueError("position_in_cycle must lie in [0, cycle_length]")
        return super().__new__(
            cls, cycle_length, epoch, position_in_cycle, best_val_loss,
            epochs_since_improvement, stopped, restart_index,
        )


def initial_state(cfg: ScheduleConfig) -> ScheduleState:
    return ScheduleState(cycle_length=cfg.restart_period_initial)


def from_preset(name: str) -> ScheduleConfig:
    """Build a config from the preset table."""
    try:
        values = PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    return ScheduleConfig(preset=name, **values)


def lr_at(state: ScheduleState, cfg: ScheduleConfig, *, step: int = 0) -> float:
    """The learning rate at the state's position in its cycle.

    ``step`` (in [0, steps_per_epoch)) gives sub-epoch resolution via a
    fractional cycle position.
    """
    if state.stopped:
        raise Stopped("schedule has stopped")
    if not 0 <= step < cfg.steps_per_epoch:
        raise ValueError("step must lie in [0, steps_per_epoch)")
    t = state.position_in_cycle + step / cfg.steps_per_epoch
    cycle = state.cycle_length
    if state.restart_index == 0 and cfg.warmup_fraction > 0:
        warm = cfg.warmup_fraction * cfg.restart_period_initial
        if t < warm:
            return cfg.max_lr * (t / warm)
        phase = (t - warm) / (cycle - warm) if cycle > warm else 1.0
    else:
        phase = t / cycle
    phase = min(max(phase, 0.0), 1.0)
    return cfg.min_lr + 0.5 * (cfg.max_lr - cfg.min_lr) * (1 + math.cos(math.pi * phase))


def observe_validation(
    state: ScheduleState, cfg: ScheduleConfig, val_loss: float
) -> ScheduleState:
    """Advance the automaton by one epoch's validation result.

    Updates the improvement bookkeeping, advances the cycle position
    (restarting and growing the cycle when it completes), and sets
    `stopped` when patience is exhausted or max_epochs is reached.
    Stopping is immediate, it does not wait for the cycle to end.
    """
    if state.stopped:
        raise Stopped("schedule has stopped")
    if not math.isfinite(val_loss):
        raise NonFiniteLoss(f"validation loss must be finite, got {val_loss!r}")

    improved = val_loss < state.best_val_loss - cfg.early_stop_min_delta
    best = val_loss if improved else state.best_val_loss
    since = 0 if improved else state.epochs_since_improvement + 1
    epoch = state.epoch + 1

    position = state.position_in_cycle + 1
    cycle = state.cycle_length
    restart_index = state.restart_index
    if position >= cycle:
        position = 0
        cycle = max(1, round(cycle * cfg.restart_period_mult))
        restart_index += 1

    stopped = epoch >= cfg.max_epochs or (
        cfg.early_stop_patience is not None and since >= cfg.early_stop_patience
    )
    return ScheduleState(
        cycle_length=cycle,
        epoch=epoch,
        position_in_cycle=position,
        best_val_loss=best,
        epochs_since_improvement=since,
        stopped=stopped,
        restart_index=restart_index,
    )


class SimulationRow(NamedTuple):
    epoch: int
    lr: float
    stopped: bool


def simulate(cfg: ScheduleConfig, val_losses: list[float]) -> list[SimulationRow]:
    """Fold the automaton over a loss trajectory.

    Each row carries the epoch number (1-based), the rate in force
    during that epoch, and whether the run stopped after observing the
    epoch's loss. Deterministic and total on finite inputs.
    """
    if not val_losses:
        raise ValueError("val_losses must be non-empty")
    state = initial_state(cfg)
    rows = []
    for loss in val_losses:
        if state.stopped:
            break
        lr = lr_at(state, cfg)
        state = observe_validation(state, cfg, loss)
        rows.append(SimulationRow(state.epoch, lr, state.stopped))
    return rows
