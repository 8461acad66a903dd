// The one training loop behind the node, link and graph trainers. AdamGNN's
// objective L = L_task + γ·L_KL + δ·L_R changes only in L_task and the
// validation metric from task to task, so a trainer supplies just those two
// as an EpochTask, and RunTrainingLoop owns everything else: the workspace
// arena, the RNG, Adam, crash/divergence resilience (train/resilience.h),
// the guarded update, best-validation early stopping, the train.epoch span
// and the per-epoch telemetry.

#ifndef ADAMGNN_TRAIN_LOOP_H_
#define ADAMGNN_TRAIN_LOOP_H_

#include <functional>
#include <vector>

#include "autograd/variable.h"
#include "nn/serialize.h"
#include "train/interfaces.h"
#include "util/random.h"
#include "util/status.h"

namespace adamgnn::train {

/// Result fields every task shares; each task's result extends them.
struct TaskResult {
  int best_epoch = 0;
  int epochs_run = 0;
  /// Mean wall time of one training epoch (seconds) — Table 4's metric.
  double avg_epoch_seconds = 0;
  /// Per-epoch training loss (the last mini-batch's, for the graph task)
  /// and wall seconds for the epochs this run executed, in order.
  /// bench_epoch compares `epoch_losses` bitwise across thread counts and
  /// obs on/off to prove those change speed, not math.
  std::vector<double> epoch_losses;
  std::vector<double> epoch_seconds;
  /// Absolute epoch the run resumed from, or -1 on a cold start.
  int resumed_from_epoch = -1;
  /// Divergence rollbacks performed during (or before, if resumed) the run.
  std::vector<nn::RecoveryEvent> recovery_events;
};

/// Metrics recorded at the best-validation epoch.
struct BestMetrics {
  double train = 0;  ///< unused by link prediction
  double val = 0;
  double test = 0;
};

/// The loop's side of one epoch, handed to the task's callbacks.
class Epoch {
 public:
  /// The run's one RNG: dropout, shuffles and evaluation all draw from it,
  /// and checkpoints save it, so a resumed run replays bitwise.
  virtual util::Rng* rng() = 0;

  /// One guarded update. Builds the loss with `loss` (timed as the forward
  /// phase), then runs GuardLoss → Backward → ClipGradNorm → GuardGradNorm
  /// → Step. When a guard rolls the run back, recovered() turns true and
  /// the task must issue no further updates this epoch.
  virtual util::Status Update(
      const std::function<autograd::Variable()>& loss) = 0;
  virtual bool recovered() const = 0;

  /// Reports the epoch's validation metric. Returns true on a new best, in
  /// which case the task scores the same evaluation on the train and test
  /// splits and reports them through RecordBest.
  virtual bool Validate(double val_metric) = 0;
  virtual void RecordBest(double train_metric, double test_metric) = 0;

 protected:
  ~Epoch() = default;
};

/// What a task adds to the loop.
struct EpochTask {
  /// Trains one epoch: one Epoch::Update per (mini-)batch.
  std::function<util::Status(Epoch*)> train;
  /// Evaluates after an epoch that did not roll back: calls Validate, and
  /// RecordBest when Validate returns true.
  std::function<util::Status(Epoch*)> evaluate;
};

/// Trains `params` for up to config.max_epochs, stopping after
/// config.patience epochs without a validation improvement. Fills the
/// shared fields of `result` and returns the best epoch's metrics.
util::Result<BestMetrics> RunTrainingLoop(
    std::vector<autograd::Variable> params, const TrainConfig& config,
    const EpochTask& task, TaskResult* result);

}  // namespace adamgnn::train

#endif  // ADAMGNN_TRAIN_LOOP_H_
