// Shared flag-parsing and input-loading helpers for the adamgnn_* CLIs.
//
// adamgnn_train and adamgnn_infer used to carry private copies of
// ParseFlags/FlagOr/LoadInput, so their defaults (hidden width, level count,
// seed, synthetic scale) could drift apart silently, and both parsed numeric
// flags with atoi/atof — which turn `--epochs=abc` into 0 and train nothing.
// Everything here parses strictly (util::ParseInt/ParseDouble) and exits 2
// with the offending flag and value on any malformed input.
//
// Header-only on purpose: two small binaries, no third library target.

#ifndef ADAMGNN_TOOLS_CLI_COMMON_H_
#define ADAMGNN_TOOLS_CLI_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/node_datasets.h"
#include "graph/io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "tensor/isa.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace adamgnn::cli {

// Model/dataset defaults shared by both CLIs. adamgnn_infer must rebuild the
// exact model shape adamgnn_train produced, so these MUST stay one copy.
inline constexpr const char* kDefaultHidden = "64";
inline constexpr const char* kDefaultLevels = "3";
inline constexpr const char* kDefaultSeed = "1";
inline constexpr const char* kDefaultScale = "0.2";

using FlagMap = std::map<std::string, std::string>;

/// One CLI flag: its name and the --help text. Each CLI declares a single
/// FlagSpec table and derives BOTH the known-flag set (for strict parsing)
/// and the --help listing from it, so a flag cannot exist without help text,
/// appear twice, or be documented but unparseable.
struct FlagSpec {
  const char* name;  ///< without the leading "--"
  const char* help;  ///< one or more lines; each is indented under the flag
};

/// The known-flag set for ParseFlags, derived from the spec table. A
/// duplicate name in the table is a programming error: exit 2 loudly (this
/// runs before any parsing, so the mistake cannot ship silently).
inline std::set<std::string> FlagNames(const std::vector<FlagSpec>& specs) {
  std::set<std::string> names;
  for (const FlagSpec& spec : specs) {
    if (!names.insert(spec.name).second) {
      std::fprintf(stderr, "duplicate flag spec: --%s\n", spec.name);
      std::exit(2);
    }
  }
  return names;
}

/// Prints every flag exactly once, in table order: `  --name` followed by
/// the indented help lines (the help string may contain '\n').
inline void PrintFlagHelp(const std::vector<FlagSpec>& specs) {
  for (const FlagSpec& spec : specs) {
    std::printf("  --%s\n", spec.name);
    const std::string help = spec.help;
    size_t start = 0;
    while (start <= help.size()) {
      const size_t end = help.find('\n', start);
      const std::string line =
          help.substr(start, end == std::string::npos ? end : end - start);
      if (!line.empty()) std::printf("      %s\n", line.c_str());
      if (end == std::string::npos) break;
      start = end + 1;
    }
  }
}

/// Minimal JSON string escaping for PrintEffectiveConfig values.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += "\"";
  return out;
}

/// Prints the resolved effective configuration as ONE JSON line on stdout:
/// the shared process state (threads, ISA, observability) plus the
/// tool-specific entries in `extras` (values must already be JSON — use
/// JsonQuote for strings). Call AFTER ConfigureThreadsOrDie /
/// ConfigureIsaOrDie so the printed values are what the run would use.
inline void PrintEffectiveConfig(
    const std::string& tool,
    const std::vector<std::pair<std::string, std::string>>& extras) {
  std::string line = "{\"tool\":" + JsonQuote(tool);
  line += ",\"threads\":" + std::to_string(util::NumThreads());
  line += ",\"effective_parallelism\":" +
          std::to_string(util::EffectiveParallelism());
  line += ",\"isa\":" + JsonQuote(tensor::IsaName(tensor::ActiveIsa()));
  line += ",\"best_isa\":" +
          JsonQuote(tensor::IsaName(tensor::BestSupportedIsa()));
  line += std::string(",\"obs_compiled\":") +
          (obs::Compiled() ? "true" : "false");
  line += std::string(",\"obs_enabled\":") +
          (obs::Enabled() ? "true" : "false");
  for (const auto& [key, value] : extras) {
    line += "," + JsonQuote(key) + ":" + value;
  }
  line += "}";
  std::printf("%s\n", line.c_str());
}

/// Parses --name / --name=value arguments. Anything not in `known` —
/// including a typo like --epoch=5 — is rejected instead of ignored.
inline FlagMap ParseFlags(int argc, char** argv,
                          const std::set<std::string>& known) {
  FlagMap flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    std::string name = eq == std::string::npos ? arg : arg.substr(0, eq);
    if (known.count(name) == 0) {
      std::fprintf(stderr,
                   "unknown flag: --%s (run with --help for the flag list)\n",
                   name.c_str());
      std::exit(2);
    }
    if (eq == std::string::npos) {
      flags[std::move(name)] = "true";
    } else {
      flags[std::move(name)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

inline std::string FlagOr(const FlagMap& flags, const std::string& key,
                          const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Integer flag with strict parsing: `--epochs=abc` (or `--epochs=12abc`,
/// or an out-of-range value) prints the flag, the bad value, and the parse
/// error, then exits 2. `fallback` must itself be parseable.
inline long long IntFlagOr(const FlagMap& flags, const std::string& key,
                           const std::string& fallback) {
  const std::string raw = FlagOr(flags, key, fallback);
  const util::Result<int64_t> parsed = util::ParseInt(raw);
  if (!parsed.ok()) {
    std::fprintf(stderr, "invalid value for --%s: \"%s\" (%s)\n", key.c_str(),
                 raw.c_str(), parsed.status().message().c_str());
    std::exit(2);
  }
  return parsed.ValueOrDie();
}

/// Floating-point flag with the same strict contract as IntFlagOr.
inline double DoubleFlagOr(const FlagMap& flags, const std::string& key,
                           const std::string& fallback) {
  const std::string raw = FlagOr(flags, key, fallback);
  const util::Result<double> parsed = util::ParseDouble(raw);
  if (!parsed.ok()) {
    std::fprintf(stderr, "invalid value for --%s: \"%s\" (%s)\n", key.c_str(),
                 raw.c_str(), parsed.status().message().c_str());
    std::exit(2);
  }
  return parsed.ValueOrDie();
}

/// Applies --threads=N (strictly parsed, must be >= 1) to the kernel pool.
inline void ConfigureThreadsOrDie(const FlagMap& flags) {
  if (flags.count("threads") == 0) return;
  const long long n = IntFlagOr(flags, "threads", "1");
  if (n < 1) {
    std::fprintf(stderr, "--threads must be >= 1, got %lld\n", n);
    std::exit(2);
  }
  util::SetNumThreads(static_cast<int>(n));
}

/// Applies --isa=scalar|avx2 to the kernel dispatcher. Unlike the
/// ADAMGNN_ISA environment override (which warns and falls back), an
/// explicit flag naming an ISA this CPU cannot run is an error: exit 2.
inline void ConfigureIsaOrDie(const FlagMap& flags) {
  if (flags.count("isa") == 0) return;
  const std::string name = FlagOr(flags, "isa", "");
  tensor::Isa isa;
  if (!tensor::ParseIsa(name, &isa)) {
    std::fprintf(stderr, "--isa must be scalar|avx2, got \"%s\"\n",
                 name.c_str());
    std::exit(2);
  }
  if (!tensor::SetIsa(isa)) {
    std::fprintf(stderr, "--isa=%s is not supported on this CPU (best: %s)\n",
                 name.c_str(), tensor::IsaName(tensor::BestSupportedIsa()));
    std::exit(2);
  }
}

inline util::Result<graph::Graph> LoadInputUnvalidated(const FlagMap& flags);

/// Loads the input graph: --synthetic=NAME [--scale=S] or --edges=F
/// [--features=F] [--labels=F]. Identical semantics in both CLIs. Every
/// loaded graph passes graph::ValidateGraph before it is returned — this is
/// the single trust boundary for on-disk inputs, so a corrupt file fails
/// here with InvalidArgument instead of as NaN embeddings mid-forward.
inline util::Result<graph::Graph> LoadInput(const FlagMap& flags) {
  ADAMGNN_ASSIGN_OR_RETURN(graph::Graph g, LoadInputUnvalidated(flags));
  ADAMGNN_RETURN_NOT_OK(graph::ValidateGraph(g));
  return g;
}

inline util::Result<graph::Graph> LoadInputUnvalidated(const FlagMap& flags) {
  const std::string synthetic = FlagOr(flags, "synthetic", "");
  if (!synthetic.empty()) {
    const double scale = DoubleFlagOr(flags, "scale", kDefaultScale);
    const std::map<std::string, data::NodeDatasetId> kByName = {
        {"acm", data::NodeDatasetId::kAcm},
        {"citeseer", data::NodeDatasetId::kCiteseer},
        {"cora", data::NodeDatasetId::kCora},
        {"emails", data::NodeDatasetId::kEmails},
        {"dblp", data::NodeDatasetId::kDblp},
        {"wiki", data::NodeDatasetId::kWiki},
    };
    auto it = kByName.find(synthetic);
    if (it == kByName.end()) {
      return util::Status::InvalidArgument("unknown synthetic dataset: " +
                                           synthetic);
    }
    ADAMGNN_ASSIGN_OR_RETURN(
        data::NodeDataset d,
        data::MakeNodeDataset(
            it->second,
            static_cast<uint64_t>(IntFlagOr(flags, "seed", kDefaultSeed)),
            scale));
    return std::move(d.graph);
  }
  const std::string edges = FlagOr(flags, "edges", "");
  if (edges.empty()) {
    return util::Status::InvalidArgument(
        "either --edges or --synthetic is required");
  }
  return graph::ReadGraph(edges, FlagOr(flags, "features", ""),
                          FlagOr(flags, "labels", ""));
}

/// Writes the process's metrics + trace spans as JSONL to the path from
/// --metrics-out, or from ADAMGNN_METRICS when the flag is absent ("-" means
/// stdout). No-op when neither is set. Call once, at the end of the run.
inline void DumpMetricsOrDie(const FlagMap& flags) {
  std::string path = FlagOr(flags, "metrics-out", "");
  if (path.empty()) path = obs::MetricsPathFromEnv();
  if (path.empty()) return;
  const util::Status st = obs::WriteMetricsJsonl(path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(1);
  }
  if (path != "-") {
    std::fprintf(stderr, "metrics written to %s\n", path.c_str());
  }
}

}  // namespace adamgnn::cli

#endif  // ADAMGNN_TOOLS_CLI_COMMON_H_
