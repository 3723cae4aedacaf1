"""Learning-rate schedules and multi-seed aggregation.

The schedule engine is a pure state machine: feed it one validation loss
per epoch, read back the rate. Presets cover the common recipes; the
adaptive one combines warm restarts with early stopping so it works for
small and large datasets alike.
"""

from seqlab import RunRecord, aggregate, best_model, from_preset, simulate
from seqlab.schedule import ScheduleConfig

# =============================================================================
# Presets
# =============================================================================

for name in ("original", "stable", "adaptive"):
    cfg = from_preset(name)
    stopping = (
        "none" if cfg.early_stop_patience is None
        else f"patience={cfg.early_stop_patience}"
    )
    print(f"{name:9s} max_lr={cfg.max_lr} epochs<={cfg.max_epochs} "
          f"restart_mult={cfg.restart_period_mult} early_stopping={stopping}")

# =============================================================================
# Simulating a trajectory: cosine cycles, warm restarts, early stop
# =============================================================================

cfg = ScheduleConfig(
    max_lr=2e-5, min_lr=0.0, restart_period_initial=2,
    restart_period_mult=2.0, max_epochs=20, early_stop_patience=3,
)
# losses improve for a while, then plateau
losses = [1.0, 0.8, 0.6, 0.5, 0.45, 0.44, 0.44, 0.44, 0.44, 0.44]
print("\nepoch  lr         stopped")
for row in simulate(cfg, losses):
    print(f"{row.epoch:5d}  {row.lr:.3e}  {row.stopped}")
# the rate jumps back to max_lr after epochs 2 and 6 (cycles 2 -> 4 -> 8)

# =============================================================================
# Multi-seed runs: mean +/- standard error, best model by argmax
# =============================================================================

metric = "strict.micro.entity.f1"
records = [
    RunRecord(f"run{seed}", seed, {"strict": {"micro": {"entity": {"f1": f1}}}})
    for seed, f1 in enumerate([0.8, 0.9, 0.85])
]
result = aggregate(records, metric)
summary = result["metrics"][metric]
print(f"\n{metric}: {summary['mean']:.4f} +/- {summary['uncertainty']:.4f} (n={summary['n']})")
print(f"best run: {best_model(records, metric).run_name}")
