#include "train/loop.h"

#include <utility>

#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/workspace.h"
#include "train/resilience.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace adamgnn::train {

namespace {

/// Wall-time breakdown of one training epoch; mini-batches accumulate.
struct EpochPhases {
  double forward_secs = 0.0;    // model Forward + loss construction
  double backward_secs = 0.0;   // Backward + gradient clipping
  double optimizer_secs = 0.0;  // optimizer Step
  double eval_secs = 0.0;       // validation/test evaluation passes
};

/// Publishes one finished epoch: epoch/phase latency histograms, loss and
/// grad-norm gauges, the train.epochs counter and the arena's
/// hit/miss/eviction/retained gauges. No-ops when obs is disabled or
/// compiled out; it reads no RNG state, parameters or activations, so loss
/// trajectories stay bitwise either way.
void RecordEpochMetrics(double epoch_secs, double loss, double grad_norm,
                        const EpochPhases& phases,
                        const tensor::Workspace& workspace) {
  // Leaky handles: registered once, process-lifetime, safe from any thread.
  static obs::Counter* epochs = new obs::Counter("train.epochs");
  static obs::Gauge* loss_gauge = new obs::Gauge("train.loss");
  static obs::Gauge* grad_gauge = new obs::Gauge("train.grad_norm");
  static obs::Histogram* epoch_hist = new obs::Histogram(
      "train.epoch_seconds", obs::LatencyBucketBounds());
  static obs::Histogram* forward_hist = new obs::Histogram(
      "train.forward_seconds", obs::LatencyBucketBounds());
  static obs::Histogram* backward_hist = new obs::Histogram(
      "train.backward_seconds", obs::LatencyBucketBounds());
  static obs::Histogram* optimizer_hist = new obs::Histogram(
      "train.optimizer_seconds", obs::LatencyBucketBounds());
  static obs::Histogram* eval_hist = new obs::Histogram(
      "train.eval_seconds", obs::LatencyBucketBounds());
  static obs::Gauge* ws_hits = new obs::Gauge("workspace.hits");
  static obs::Gauge* ws_misses = new obs::Gauge("workspace.misses");
  static obs::Gauge* ws_evictions = new obs::Gauge("workspace.evictions");
  static obs::Gauge* ws_retained_buffers =
      new obs::Gauge("workspace.retained_buffers");
  static obs::Gauge* ws_retained_bytes =
      new obs::Gauge("workspace.retained_bytes");

  if (!obs::Enabled()) return;
  epochs->Add();
  loss_gauge->Set(loss);
  grad_gauge->Set(grad_norm);
  epoch_hist->Observe(epoch_secs);
  forward_hist->Observe(phases.forward_secs);
  backward_hist->Observe(phases.backward_secs);
  optimizer_hist->Observe(phases.optimizer_secs);
  eval_hist->Observe(phases.eval_secs);
  const tensor::Workspace::Stats ws = workspace.stats();
  ws_hits->Set(static_cast<double>(ws.hits));
  ws_misses->Set(static_cast<double>(ws.misses));
  ws_evictions->Set(static_cast<double>(ws.evictions));
  ws_retained_buffers->Set(static_cast<double>(ws.retained_buffers));
  ws_retained_bytes->Set(
      static_cast<double>(ws.retained_doubles * sizeof(double)));
}

struct EpochState final : Epoch {
  EpochState(int epoch, util::Rng* rng, nn::Adam* optimizer,
             TrainingResilience* resilience, double clip_norm)
      : epoch(epoch),
        run_rng(rng),
        optimizer(optimizer),
        resilience(resilience),
        clip_norm(clip_norm) {}

  util::Rng* rng() override { return run_rng; }
  bool recovered() const override { return rolled_back; }

  util::Status Update(
      const std::function<autograd::Variable()>& build_loss) override {
    ADAMGNN_DCHECK(!rolled_back);
    util::Stopwatch watch;
    autograd::Variable loss_var = build_loss();
    phases.forward_secs += watch.ElapsedSeconds();
    loss = loss_var.value()(0, 0);
    ADAMGNN_ASSIGN_OR_RETURN(rolled_back, resilience->GuardLoss(epoch, &loss));
    if (rolled_back) return util::Status::OK();
    watch.Restart();
    autograd::Backward(loss_var);
    grad_norm = nn::ClipGradNorm(optimizer->params(), clip_norm);
    phases.backward_secs += watch.ElapsedSeconds();
    ADAMGNN_ASSIGN_OR_RETURN(rolled_back,
                             resilience->GuardGradNorm(epoch, grad_norm));
    if (rolled_back) return util::Status::OK();
    watch.Restart();
    optimizer->Step();
    phases.optimizer_secs += watch.ElapsedSeconds();
    return util::Status::OK();
  }

  bool Validate(double val_metric) override {
    val = val_metric;
    nn::TrainingState& st = resilience->state();
    if (val_metric > st.best_val) {
      st.best_val = val_metric;
      st.best_epoch = epoch;
      st.best_val_metric = val_metric;
      st.stale_epochs = 0;
      return true;
    }
    ++st.stale_epochs;
    return false;
  }

  void RecordBest(double train_metric, double test_metric) override {
    resilience->state().best_train_metric = train_metric;
    resilience->state().best_test_metric = test_metric;
  }

  const int epoch;
  util::Rng* const run_rng;
  nn::Adam* const optimizer;
  TrainingResilience* const resilience;
  const double clip_norm;
  bool rolled_back = false;
  EpochPhases phases;
  /// The last update's loss (as the guard saw it), its pre-clip gradient
  /// norm, and the validation metric.
  double loss = 0.0;
  double grad_norm = 0.0;
  double val = 0.0;
};

}  // namespace

util::Result<BestMetrics> RunTrainingLoop(
    std::vector<autograd::Variable> params, const TrainConfig& config,
    const EpochTask& task, TaskResult* result) {
  // Epochs churn through thousands of same-shaped matrices; the arena hands
  // each epoch the previous epoch's storage back. Declared before the
  // optimizer so the optimizer's buffers drain into it on scope exit.
  tensor::Workspace workspace;
  tensor::Workspace::Bind workspace_bind(&workspace);

  util::Rng rng(config.seed);
  nn::Adam optimizer(std::move(params), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);
  TrainingResilience resilience(config, &optimizer, &rng);
  ADAMGNN_ASSIGN_OR_RETURN(int start_epoch, resilience.Initialize());
  nn::TrainingState& st = resilience.state();
  result->epochs_run = start_epoch;

  for (int epoch = start_epoch; epoch < config.max_epochs; ++epoch) {
    util::Stopwatch watch;
    obs::TraceSpan epoch_span("train.epoch");
    epoch_span.Note("epoch", static_cast<double>(epoch));
    EpochState e(epoch, &rng, &optimizer, &resilience, config.clip_norm);
    ADAMGNN_RETURN_NOT_OK(task.train(&e));
    const double epoch_secs = watch.ElapsedSeconds();
    st.total_epoch_seconds += epoch_secs;
    result->epoch_losses.push_back(e.loss);
    result->epoch_seconds.push_back(epoch_secs);
    result->epochs_run = epoch + 1;
    if (e.recovered()) {
      epoch_span.Note("recovered", 1.0);
      RecordEpochMetrics(epoch_secs, e.loss, e.grad_norm, e.phases,
                         workspace);
      continue;  // parameters were rolled back; nothing new to evaluate
    }

    watch.Restart();
    ADAMGNN_RETURN_NOT_OK(task.evaluate(&e));
    e.phases.eval_secs = watch.ElapsedSeconds();
    if (config.verbose) {
      ADAMGNN_LOG(Info) << "epoch " << epoch << " loss " << e.loss << " val "
                        << e.val;
    }
    epoch_span.Note("loss", e.loss);
    epoch_span.Note("grad_norm", e.grad_norm);
    epoch_span.Note("val_metric", e.val);
    RecordEpochMetrics(epoch_secs, e.loss, e.grad_norm, e.phases, workspace);
    ADAMGNN_RETURN_NOT_OK(resilience.CompleteEpoch(epoch));
    if (st.stale_epochs >= config.patience) break;
  }
  ADAMGNN_RETURN_NOT_OK(resilience.Finalize(result->epochs_run));

  result->best_epoch = static_cast<int>(st.best_epoch);
  result->resumed_from_epoch = resilience.resumed_from_epoch();
  result->recovery_events = resilience.recovery_events();
  result->avg_epoch_seconds =
      result->epochs_run > 0
          ? st.total_epoch_seconds / static_cast<double>(result->epochs_run)
          : 0.0;
  return BestMetrics{st.best_train_metric, st.best_val_metric,
                     st.best_test_metric};
}

}  // namespace adamgnn::train
