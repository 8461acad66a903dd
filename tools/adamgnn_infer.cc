// adamgnn_infer — serving CLI for trained AdamGNN checkpoints.
//
// Usage:
//   adamgnn_infer --task=nc --load=model.ckpt --synthetic=cora [--scale=0.2]
//                 [--seed=1] [--levels=3] [--hidden=64] [--threads=N]
//                 [--output=pred.tsv] [--repeat=N] [--timeout-ms=T]
//                 [--max-inflight=B] [--max-retries=R]
//   adamgnn_infer --task=lp --load=model.ckpt --edges=g.txt --features=x.txt
//                 [...]
//   adamgnn_infer --task=nc --load=model.ckpt --synthetic=cora --serve-loop
//                 [--serve-iters=N] [--serve-clients=C] [--reload-on=MARKER]
//                 [--drain-timeout-ms=T] [--watchdog-factor=F]
//
// Loads frozen weights written by `adamgnn_train --save` and serves the
// input graph through serve::ResilientServer: request deadline
// (--timeout-ms), admission budget (--max-inflight), bounded retries with a
// per-plan circuit breaker, and graceful degradation to a shallow plan or a
// stale cached result when the full path cannot complete. Responses that ran
// the full plan are bitwise-identical to the trainer's eval-mode forward at
// the same checkpoint. --repeat measures the warm path: repeated requests
// for the same graph hit the session's fingerprint-keyed result cache.
//
// Serve-loop mode (--serve-loop): the process becomes a long-running server
// with a full lifecycle. The checkpoint is published through the versioned
// serve::ModelRegistry (canary-gated), --serve-clients worker threads issue
// a continuous request stream, and the main thread polls --reload-on: when
// that marker file appears, its first line names a checkpoint to hot-swap
// in (empty line = reload --load; the literal word `rollback` = swap back
// to the last-known-good version), and the marker is removed. A rejected
// reload (corrupt file, canary-gate failure) is logged and the current
// version keeps serving. SIGTERM/SIGINT triggers a graceful drain: new
// requests are shed with Unavailable, in-flight requests finish (bounded by
// --drain-timeout-ms, after which stragglers are cancelled), and the
// process exits 0 — or 5 if the drain deadline cancelled anyone.
//
// Exit codes (scriptable — see tools/check.sh):
//   0  success (including degraded-mode responses; stderr names the mode)
//   1  internal error (checkpoint write failure, unexpected status)
//   2  bad flags / usage
//   3  invalid input (unreadable or corrupt graph/feature/label/checkpoint
//      files, NaN/Inf features, out-of-range edge endpoints)
//   4  deadline exceeded or resources exhausted (admission reject, retry
//      budget spent, circuit breaker open) with no degraded fallback
//   5  drain timeout: shutdown completed but in-flight stragglers had to be
//      cancelled at the drain deadline (serve-loop mode only)
//
// Output (--output, default stdout): `node<TAB>class` lines for nc (the
// same format as `adamgnn_train --dump-predictions`), `u<TAB>v<TAB>score`
// lines over the graph's edges for lp.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/adamgnn_model.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "tensor/kernels.h"
#include "serve/lifecycle.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tools/cli_common.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/signal.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace adamgnn;  // CLI tool; library code never does this
using cli::FlagOr;

// Single source of truth for the tool's flag surface: the known-flag set
// (strict parsing) and the --help listing are both derived from this table,
// so every flag is documented exactly once.
const std::vector<cli::FlagSpec>& Specs() {
  static const std::vector<cli::FlagSpec>* kSpecs =
      new std::vector<cli::FlagSpec>{
          {"help", "print this flag list and exit"},
          {"task", "nc (node classification, default) or lp (link "
                   "prediction)"},
          {"load", "checkpoint from `adamgnn_train --save` (model shape "
                   "flags\n--levels/--hidden/--classes must match the "
                   "training run); required"},
          {"edges", "edge-list input file (one `u v [w]` line per edge)"},
          {"features", "node-feature file for --edges input"},
          {"labels", "node-label file for --edges input"},
          {"synthetic", "built-in dataset: acm|citeseer|cora|emails|dblp|"
                        "wiki"},
          {"scale", "synthetic dataset size multiplier (default 0.2)"},
          {"levels", "pooling levels; must match training (default 3)"},
          {"hidden", "hidden width; must match training (default 64)"},
          {"classes", "class count for --task=nc on unlabeled input"},
          {"seed", "synthetic-data / scratch-model seed (default 1)"},
          {"threads", "kernel worker threads (default: ADAMGNN_NUM_THREADS "
                      "env\nor hardware concurrency)"},
          {"isa", "scalar|avx2: force the SIMD kernel backend "
                  "(default:\nADAMGNN_ISA env or best supported); exits 2 "
                  "if the CPU\ncannot run it"},
          {"output", "predictions file (default: stdout).\nnc: "
                     "node<TAB>class, lp: u<TAB>v<TAB>score"},
          {"repeat", "run N extra warm queries against the cached plan and\n"
                     "report cold vs. warm latency"},
          {"metrics-out", "write request-latency histograms, serve.* "
                          "resilience\ncounters, plan-cache counters, and "
                          "trace spans as JSONL;\n\"-\" means stdout. "
                          "ADAMGNN_METRICS env is the fallback"},
          {"timeout-ms", "per-request deadline in milliseconds; an expired\n"
                         "request aborts mid-plan or mid-forward with exit "
                         "4\n(0 = already expired, useful for drills)"},
          {"max-inflight", "admission budget (default 64); over-budget "
                           "requests\nare shed with exit 4"},
          {"max-retries", "extra attempts for transient failures (default "
                          "1)"},
          {"print-config", "print the resolved effective configuration\n"
                           "(threads, ISA, obs state, serve limits) as one "
                           "JSON\nline on stdout and exit 0"},
          {"serve-loop", "run as a long-lived server: client threads issue "
                         "a\ncontinuous request stream, --reload-on is "
                         "polled for\nhot-swaps, SIGTERM/SIGINT drains "
                         "gracefully"},
          {"serve-iters", "serve-loop: stop after N total requests "
                          "(default 0 =\nrun until a shutdown signal)"},
          {"serve-clients", "serve-loop: concurrent client threads "
                            "(default 2)"},
          {"reload-on", "serve-loop: marker-file path polled for hot-swap\n"
                        "commands; first line = checkpoint path (empty "
                        "line =\nreload --load, `rollback` = restore "
                        "last-known-good);\nthe marker is removed after "
                        "each poll"},
          {"drain-timeout-ms", "serve-loop: how long a signal-triggered "
                               "drain waits\nfor in-flight requests before "
                               "cancelling stragglers\n(default 2000); "
                               "exceeding it exits 5"},
          {"watchdog-factor", "serve-loop: cancel any request running "
                              "longer than\nF x its deadline (default 4)"},
          {"watchdog-poll-ms", "serve-loop: watchdog sweep interval "
                               "(default 10)"},
          {"canary-tolerance", "serve-loop: max per-element probe-output "
                               "divergence a\nreloaded checkpoint may show "
                               "vs. the serving version\n(default -1 = "
                               "divergence gate off; NaN/Inf and shape\n"
                               "gates always run)"},
          {"inject-alloc-fault-at",
           "deterministically fail tensor allocations starting at\nthe Nth "
           "(resilience drills)"},
          {"inject-alloc-fault-count",
           "how many consecutive allocations fail (default 1)"},
          {"inject-deadline-at-check",
           "expire the deadline at the Nth cooperative check\n(needs "
           "--timeout-ms)"},
      };
  return *kSpecs;
}

/// Maps a serving/input Status onto the CLI's exit-code contract.
int ExitCodeFor(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kDeadlineExceeded:
    case util::StatusCode::kResourceExhausted:
    case util::StatusCode::kCancelled:
    case util::StatusCode::kUnavailable:
      return 4;
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kFailedPrecondition:
    case util::StatusCode::kNotFound:
      return 3;
    default:
      return 1;
  }
}

constexpr int kExitDrainTimeout = 5;

/// Arms the deterministic fault injector from the --inject-* flags. Called
/// at the point where the counted events should start being serving work.
void ArmFaultInjectionFromFlags(const cli::FlagMap& flags) {
  const int alloc_at = static_cast<int>(
      cli::IntFlagOr(flags, "inject-alloc-fault-at", "0"));
  const int alloc_count = static_cast<int>(
      cli::IntFlagOr(flags, "inject-alloc-fault-count", "1"));
  const int deadline_at = static_cast<int>(
      cli::IntFlagOr(flags, "inject-deadline-at-check", "0"));
  if (alloc_at > 0 || deadline_at > 0) {
    util::FaultPlan fault_plan;
    fault_plan.fail_alloc_at = alloc_at;
    fault_plan.fail_alloc_count = alloc_count;
    fault_plan.expire_deadline_at_check = deadline_at;
    util::FaultInjector::Instance().Arm(fault_plan);
  }
}

/// One --reload-on poll: consume the marker file (if present) and apply the
/// command it carries. Reload failures are logged and swallowed — the
/// current version keeps serving, which is the whole point of the gate.
void PollReloadMarker(const std::string& marker,
                      const std::string& default_ckpt,
                      serve::ModelRegistry* registry) {
  std::FILE* f = std::fopen(marker.c_str(), "r");
  if (f == nullptr) return;
  char buf[4096] = {0};
  std::string line;
  if (std::fgets(buf, sizeof(buf), f) != nullptr) line = buf;
  std::fclose(f);
  std::remove(marker.c_str());
  while (!line.empty() &&
         (line.back() == '\n' || line.back() == '\r' || line.back() == ' ')) {
    line.pop_back();
  }
  if (line == "rollback") {
    util::Status st = registry->Rollback();
    if (st.ok()) {
      std::fprintf(stderr, "serve-loop: rollback ok version=%llu\n",
                   static_cast<unsigned long long>(registry->Current()->id()));
    } else {
      std::fprintf(stderr, "serve-loop: rollback failed: %s\n",
                   st.ToString().c_str());
    }
    return;
  }
  const std::string path = line.empty() ? default_ckpt : line;
  auto loaded = registry->TryLoadVersion(path);
  if (loaded.ok()) {
    std::fprintf(
        stderr, "serve-loop: reload ok version=%llu fp=%016llx path=%s\n",
        static_cast<unsigned long long>(loaded.ValueOrDie()->id()),
        static_cast<unsigned long long>(
            loaded.ValueOrDie()->weights_fingerprint()),
        path.c_str());
  } else {
    std::fprintf(stderr, "serve-loop: reload rejected (still serving): %s\n",
                 loaded.status().ToString().c_str());
  }
}

/// The --serve-loop server body. Returns the process exit code.
int RunServeLoop(const cli::FlagMap& flags, const std::string& task,
                 const std::string& load, const graph::Graph& g,
                 const core::AdamGnnConfig& config,
                 serve::ServerOptions server_options,
                 const serve::RequestOptions& base_request) {
  serve::LifecycleOptions lc_options;
  lc_options.drain_timeout_s =
      cli::DoubleFlagOr(flags, "drain-timeout-ms", "2000") / 1e3;
  lc_options.watchdog_factor = cli::DoubleFlagOr(flags, "watchdog-factor",
                                                 "4");
  lc_options.watchdog_poll_s =
      cli::DoubleFlagOr(flags, "watchdog-poll-ms", "10") / 1e3;
  if (lc_options.watchdog_factor < 1.0) {
    std::fprintf(stderr, "--watchdog-factor must be >= 1\n");
    return 2;
  }

  // Declared before the registry on purpose: every version's server holds a
  // raw lifecycle pointer, so the registry (and its versions) must unwind
  // first.
  serve::ServerLifecycle lifecycle(lc_options);
  server_options.lifecycle = &lifecycle;

  serve::ModelRegistryOptions reg_options;
  reg_options.config = config;
  reg_options.server = server_options;
  reg_options.scratch_seed = static_cast<uint64_t>(
      cli::IntFlagOr(flags, "seed", cli::kDefaultSeed));
  reg_options.canary_tolerance =
      cli::DoubleFlagOr(flags, "canary-tolerance", "-1");
  if (task == "lp") {
    // Mirror the trainer's parameter order: lp checkpoints append the
    // decoder projection after the core model's tensors.
    const size_t hidden = config.hidden_dim;
    reg_options.make_extra_params = [hidden](util::Rng* rng) {
      nn::Linear projection(hidden, hidden, /*use_bias=*/false, rng);
      return projection.Parameters();
    };
  }
  // The serving input doubles as the pinned canary probe: every candidate
  // version must produce sane outputs on the exact graph it will serve.
  serve::ModelRegistry registry(reg_options, g);

  auto first = registry.TryLoadVersion(load);
  if (!first.ok()) {
    std::fprintf(stderr, "serve-loop: initial load failed: %s\n",
                 first.status().ToString().c_str());
    return ExitCodeFor(first.status());
  }

  util::Status sig = util::InstallShutdownHandlers();
  if (!sig.ok()) {
    std::fprintf(stderr, "%s\n", sig.ToString().c_str());
    return 1;
  }
  lifecycle.MarkReady();
  lifecycle.StartWatchdog();
  std::fprintf(stderr, "serve-loop: ready version=%llu fp=%016llx\n",
               static_cast<unsigned long long>(first.ValueOrDie()->id()),
               static_cast<unsigned long long>(
                   first.ValueOrDie()->weights_fingerprint()));

  // Injected faults start counting HERE: everything before this line
  // (initial load, canary, warm snapshot) is startup, not serving.
  ArmFaultInjectionFromFlags(flags);

  const long long serve_iters = cli::IntFlagOr(flags, "serve-iters", "0");
  const int clients =
      static_cast<int>(cli::IntFlagOr(flags, "serve-clients", "2"));
  if (clients < 1 || serve_iters < 0) {
    std::fprintf(stderr,
                 "--serve-clients must be >= 1, --serve-iters >= 0\n");
    return 2;
  }

  std::atomic<long long> issued{0};
  std::atomic<long long> answered{0};
  std::atomic<long long> degraded{0};
  std::atomic<long long> shed{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> internal_error{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    workers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        const long long n = issued.fetch_add(1, std::memory_order_relaxed);
        if (serve_iters > 0 && n >= serve_iters) {
          issued.fetch_sub(1, std::memory_order_relaxed);
          break;
        }
        // Pin ONE published version for the whole request: the response is
        // computed wholly against it even if a hot-swap lands mid-forward.
        std::shared_ptr<serve::ModelVersion> version = registry.Current();
        if (version == nullptr) break;
        util::Result<serve::ServeResult> r =
            version->server().Serve(g, base_request);
        if (r.ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          if (r.ValueOrDie().mode != serve::ServeMode::kFull) {
            degraded.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        const util::StatusCode code = r.status().code();
        if (code == util::StatusCode::kUnavailable &&
            lifecycle.state() != serve::LifecycleState::kReady) {
          break;  // draining/stopping: not an accepted request, just stop
        }
        if (code == util::StatusCode::kDeadlineExceeded ||
            code == util::StatusCode::kResourceExhausted ||
            code == util::StatusCode::kCancelled ||
            code == util::StatusCode::kUnavailable) {
          shed.fetch_add(1, std::memory_order_relaxed);  // taxonomy shed
          continue;
        }
        std::fprintf(stderr, "serve-loop: request failed: %s\n",
                     r.status().ToString().c_str());
        internal_error.store(true, std::memory_order_relaxed);
      }
    });
  }

  const std::string reload_on = FlagOr(flags, "reload-on", "");
  while (true) {
    if (util::ShutdownRequested()) {
      std::fprintf(stderr, "serve-loop: shutdown signal %d\n",
                   util::ShutdownSignal());
      break;
    }
    if (serve_iters > 0 &&
        issued.load(std::memory_order_relaxed) >= serve_iters) {
      break;
    }
    if (!reload_on.empty()) PollReloadMarker(reload_on, load, &registry);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  lifecycle.BeginDrain();
  const bool drained_clean = lifecycle.WaitForDrain();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();
  lifecycle.StopWatchdog();
  lifecycle.MarkStopped();

  std::fprintf(stderr,
               "serve-loop: %s answered=%lld degraded=%lld shed=%lld "
               "versions=%zu\n",
               drained_clean ? "drained" : "drain timeout, stragglers "
                                           "cancelled",
               answered.load(), degraded.load(), shed.load(),
               registry.num_versions());
  cli::DumpMetricsOrDie(flags);
  if (internal_error.load()) return 1;
  return drained_clean ? 0 : kExitDrainTimeout;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = cli::ParseFlags(argc, argv, cli::FlagNames(Specs()));
  if (flags.count("help") > 0) {
    std::printf(
        "usage: adamgnn_infer --task=nc|lp --load=CKPT (--edges=F "
        "[--features=F] [--labels=F] | "
        "--synthetic=acm|citeseer|cora|emails|dblp|wiki [--scale=S]) "
        "[flags...]\n"
        "exit codes: 0 ok, 1 internal, 2 bad flags, 3 invalid input,\n"
        "            4 deadline/resources, 5 drain timeout\n"
        "flags:\n");
    cli::PrintFlagHelp(Specs());
    return 0;
  }
  cli::ConfigureThreadsOrDie(flags);
  cli::ConfigureIsaOrDie(flags);

  const std::string task = FlagOr(flags, "task", "nc");

  serve::ServerOptions server_options;
  server_options.max_inflight = static_cast<size_t>(
      cli::IntFlagOr(flags, "max-inflight", "64"));
  server_options.max_retries =
      static_cast<int>(cli::IntFlagOr(flags, "max-retries", "1"));

  serve::RequestOptions request;
  if (flags.count("timeout-ms") > 0) {
    request.timeout_s = cli::DoubleFlagOr(flags, "timeout-ms", "0") / 1e3;
    if (request.timeout_s < 0) {
      std::fprintf(stderr, "--timeout-ms must be >= 0\n");
      return 2;
    }
  }

  if (flags.count("print-config") > 0) {
    cli::PrintEffectiveConfig(
        "adamgnn_infer",
        {{"task", cli::JsonQuote(task)},
         {"serve_loop", flags.count("serve-loop") > 0 ? "true" : "false"},
         {"max_inflight", std::to_string(server_options.max_inflight)},
         {"max_retries", std::to_string(server_options.max_retries)},
         {"timeout_ms",
          std::to_string(flags.count("timeout-ms") > 0
                             ? request.timeout_s * 1e3
                             : -1.0)},
         {"drain_timeout_ms",
          cli::FlagOr(flags, "drain-timeout-ms", "2000")},
         {"watchdog_factor", cli::FlagOr(flags, "watchdog-factor", "4")},
         {"canary_tolerance",
          cli::FlagOr(flags, "canary-tolerance", "-1")}});
    return 0;
  }

  const std::string load = FlagOr(flags, "load", "");
  if (load.empty()) {
    std::fprintf(stderr, "--load=CKPT is required\n");
    return 2;
  }
  if (task != "nc" && task != "lp") {
    std::fprintf(stderr, "unknown --task=%s (expected nc or lp)\n",
                 task.c_str());
    return 2;
  }

  auto graph_result = cli::LoadInput(flags);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "%s\n", graph_result.status().ToString().c_str());
    return 3;
  }
  graph::Graph g = std::move(graph_result).ValueOrDie();
  if (!g.has_features()) {
    std::fprintf(stderr, "input graph has no node features\n");
    return 3;
  }
  std::fprintf(stderr, "loaded %s\n", g.DebugString().c_str());

  core::AdamGnnConfig config;
  config.in_dim = g.feature_dim();
  config.hidden_dim = static_cast<size_t>(
      cli::IntFlagOr(flags, "hidden", cli::kDefaultHidden));
  config.num_levels = static_cast<int>(
      cli::IntFlagOr(flags, "levels", cli::kDefaultLevels));
  if (task == "nc") {
    const int classes =
        static_cast<int>(cli::IntFlagOr(flags, "classes", "0"));
    if (classes > 0) {
      config.num_classes = static_cast<size_t>(classes);
    } else if (g.has_labels()) {
      config.num_classes = static_cast<size_t>(g.num_classes());
    } else {
      std::fprintf(stderr, "--task=nc needs --classes or labeled input\n");
      return 2;
    }
  }

  if (flags.count("serve-loop") > 0) {
    return RunServeLoop(flags, task, load, g, config, server_options,
                        request);
  }

  // The init RNG only seeds weights that LoadParameters overwrites.
  util::Rng rng(static_cast<uint64_t>(
      cli::IntFlagOr(flags, "seed", cli::kDefaultSeed)));
  core::AdamGnn model(config, &rng);
  // Mirror the trainer's parameter order: link prediction checkpoints append
  // the decoder projection after the core model's tensors.
  nn::Linear projection(config.hidden_dim, config.hidden_dim,
                        /*use_bias=*/false, &rng);
  std::vector<autograd::Variable> params = model.Parameters();
  if (task == "lp") {
    for (auto& p : projection.Parameters()) params.push_back(p);
  }
  util::Status load_status = nn::LoadParameters(load, &params);
  if (!load_status.ok()) {
    std::fprintf(stderr, "%s\n", load_status.ToString().c_str());
    return 3;
  }

  serve::ResilientServer server(model, server_options);

  // Optional deterministic fault injection for resilience drills. Armed
  // AFTER server construction so the counted allocations are serving work,
  // not the weight snapshot.
  ArmFaultInjectionFromFlags(flags);

  // Cold request: plan construction + the full pooling cascade.
  util::Stopwatch cold_watch;
  util::Result<serve::ServeResult> served = server.Serve(g, request);
  const double cold_ms = cold_watch.ElapsedSeconds() * 1e3;
  if (!served.ok()) {
    std::fprintf(stderr, "serve failed: %s\n",
                 served.status().ToString().c_str());
    cli::DumpMetricsOrDie(flags);  // the drill legs inspect these
    return ExitCodeFor(served.status());
  }
  serve::ServeResult result = std::move(served).ValueOrDie();
  std::fprintf(stderr, "served mode=%s lambda=%d levels=%d attempts=%d\n",
               serve::ServeModeToString(result.mode), result.lambda_used,
               result.levels_used, result.attempts);

  const int repeat = static_cast<int>(cli::IntFlagOr(flags, "repeat", "0"));
  if (repeat > 0) {
    util::Stopwatch warm_watch;
    for (int i = 0; i < repeat; ++i) {
      util::Result<serve::ServeResult> warm = server.Serve(g, request);
      if (!warm.ok()) {
        std::fprintf(stderr, "warm serve failed: %s\n",
                     warm.status().ToString().c_str());
        cli::DumpMetricsOrDie(flags);
        return ExitCodeFor(warm.status());
      }
    }
    const double warm_ms = warm_watch.ElapsedSeconds() * 1e3 / repeat;
    std::fprintf(stderr, "cold request %.3f ms, warm request %.3f ms (x%d)\n",
                 cold_ms, warm_ms, repeat);
  } else {
    std::fprintf(stderr, "cold request %.3f ms\n", cold_ms);
  }

  const std::string output = FlagOr(flags, "output", "");
  std::FILE* out = stdout;
  if (!output.empty()) {
    out = std::fopen(output.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", output.c_str());
      return 1;
    }
  }

  if (task == "nc") {
    // Argmax over the served logits (degraded responses stay usable: the
    // shallow forward produces the same shape at lower fidelity).
    const tensor::Matrix& logits = result.logits;
    for (size_t i = 0; i < logits.rows(); ++i) {
      const double* row = logits.row(i);
      size_t best = 0;
      for (size_t c = 1; c < logits.cols(); ++c) {
        if (row[c] > row[best]) best = c;
      }
      std::fprintf(out, "%zu\t%d\n", i, static_cast<int>(best));
    }
  } else {
    // Decoder-space link scores for every edge of the input graph.
    tensor::Matrix h =
        tensor::MatMul(result.embeddings, projection.weight().value());
    for (graph::NodeId u = 0; static_cast<size_t>(u) < g.num_nodes(); ++u) {
      for (graph::NodeId v : g.Neighbors(u)) {
        if (v < u) continue;  // each undirected edge once
        double s = 0.0;
        const double* a = h.row(static_cast<size_t>(u));
        const double* b = h.row(static_cast<size_t>(v));
        for (size_t j = 0; j < h.cols(); ++j) s += a[j] * b[j];
        std::fprintf(out, "%lld\t%lld\t%.17g\n", static_cast<long long>(u),
                     static_cast<long long>(v), s);
      }
    }
  }
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "predictions written to %s\n", output.c_str());
  }
  cli::DumpMetricsOrDie(flags);
  return 0;
}
