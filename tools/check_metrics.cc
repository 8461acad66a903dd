// check_metrics — schema validator for the JSONL emitted by --metrics-out.
//
// Usage:
//   check_metrics --file=metrics.jsonl [--mode=any|train|infer|serve|off]
//
// Validates every line against the export schema (see src/obs/export.h):
//   - exactly one leading meta line with version/compiled/enabled
//   - counter lines: non-negative integer value
//   - gauge lines: numeric (or null) value
//   - histogram lines: strictly ascending bounds, counts.size() ==
//     bounds.size() + 1, sum(counts) == count
//   - span lines: name + timing fields + attrs object
// and then applies mode-specific liveness checks: `train` requires the
// trainer's epoch/phase metrics and pool/workspace stats to be present and
// non-trivial, `infer` requires request-latency and plan-cache metrics,
// `serve` requires the serve-loop lifecycle/reload/watchdog families with a
// balanced reload ledger, `off` requires a compiled:false meta line and
// nothing else. Exits 0 on success, 1 with a diagnostic on the first
// violation.
//
// The parser is a deliberately small recursive-descent JSON subset reader
// (objects, arrays, strings, numbers, booleans, null) — enough for our own
// exporter's output; it is not a general JSON library.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + parser.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind =
      Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  bool IsNumber() const { return kind == Kind::kNumber; }
  const JsonValue* Find(const std::string& key) const {
    auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipSpace();
    if (!ParseValue(out, error)) return false;
    SkipSpace();
    if (pos_ != s_.size()) {
      *error = "trailing characters after JSON value";
      return false;
    }
    return true;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out, std::string* error) {
    SkipSpace();
    if (pos_ >= s_.size()) {
      *error = "unexpected end of input";
      return false;
    }
    const char c = s_[pos_];
    if (c == '{') return ParseObject(out, error);
    if (c == '[') return ParseArray(out, error);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str, error);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      out->kind = JsonValue::Kind::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out, error);
  }

  bool ParseObject(JsonValue* out, std::string* error) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key, error)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        *error = "expected ':' after object key";
        return false;
      }
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value, error)) return false;
      out->members[key] = std::move(value);
      SkipSpace();
      if (pos_ >= s_.size()) {
        *error = "unterminated object";
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      *error = "expected ',' or '}' in object";
      return false;
    }
  }

  bool ParseArray(JsonValue* out, std::string* error) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value, error)) return false;
      out->items.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= s_.size()) {
        *error = "unterminated array";
        return false;
      }
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      *error = "expected ',' or ']' in array";
      return false;
    }
  }

  bool ParseString(std::string* out, std::string* error) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      *error = "expected string";
      return false;
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) {
          *error = "dangling escape in string";
          return false;
        }
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) {
              *error = "truncated \\u escape";
              return false;
            }
            // Exporter only emits \u00xx for control bytes; decode as latin1.
            const std::string hex = s_.substr(pos_, 4);
            out->push_back(
                static_cast<char>(std::strtol(hex.c_str(), nullptr, 16)));
            pos_ += 4;
            break;
          }
          default:
            *error = "unknown escape in string";
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= s_.size()) {
      *error = "unterminated string";
      return false;
    }
    ++pos_;  // closing '"'
    return true;
  }

  bool ParseNumber(JsonValue* out, std::string* error) {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      *error = "expected a JSON value";
      return false;
    }
    const std::string token = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      *error = "malformed number \"" + token + "\"";
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema checks.

int Fail(size_t line_no, const std::string& message) {
  std::fprintf(stderr, "check_metrics: line %zu: %s\n", line_no,
               message.c_str());
  return 1;
}

struct ParsedFile {
  bool compiled = false;
  bool enabled = false;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;  // NaN-free; null gauges rejected
  std::map<std::string, double> hist_counts;
  std::vector<std::string> span_names;
  // Spans by name -> attr keys seen (union across events).
  std::map<std::string, std::map<std::string, double>> span_attrs;
};

const JsonValue* RequireMember(const JsonValue& obj, const std::string& key,
                               JsonValue::Kind kind, size_t line_no,
                               std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    *error = "missing \"" + key + "\"";
    return nullptr;
  }
  if (v->kind != kind) {
    *error = "\"" + key + "\" has wrong type";
    return nullptr;
  }
  (void)line_no;
  return v;
}

int CheckHistogram(const JsonValue& obj, size_t line_no, ParsedFile* file) {
  std::string error;
  const JsonValue* name =
      RequireMember(obj, "name", JsonValue::Kind::kString, line_no, &error);
  if (name == nullptr) return Fail(line_no, error);
  const JsonValue* bounds =
      RequireMember(obj, "bounds", JsonValue::Kind::kArray, line_no, &error);
  if (bounds == nullptr) return Fail(line_no, error);
  const JsonValue* counts =
      RequireMember(obj, "counts", JsonValue::Kind::kArray, line_no, &error);
  if (counts == nullptr) return Fail(line_no, error);
  const JsonValue* count =
      RequireMember(obj, "count", JsonValue::Kind::kNumber, line_no, &error);
  if (count == nullptr) return Fail(line_no, error);
  if (obj.Find("sum") == nullptr || obj.Find("min") == nullptr ||
      obj.Find("max") == nullptr) {
    return Fail(line_no, "histogram missing sum/min/max");
  }

  double prev = -1e308;
  for (const JsonValue& b : bounds->items) {
    if (!b.IsNumber()) return Fail(line_no, "non-numeric histogram bound");
    if (b.number <= prev) {
      return Fail(line_no, "histogram bounds are not strictly ascending");
    }
    prev = b.number;
  }
  if (counts->items.size() != bounds->items.size() + 1) {
    return Fail(line_no, "histogram needs counts.size() == bounds.size() + 1 "
                         "(the last bucket is the overflow bucket)");
  }
  double total = 0.0;
  for (const JsonValue& c : counts->items) {
    if (!c.IsNumber() || c.number < 0) {
      return Fail(line_no, "negative or non-numeric bucket count");
    }
    total += c.number;
  }
  if (total != count->number) {
    return Fail(line_no, "sum of bucket counts disagrees with count");
  }
  file->hist_counts[name->str] = count->number;
  return 0;
}

int CheckSpan(const JsonValue& obj, size_t line_no, ParsedFile* file) {
  std::string error;
  const JsonValue* name =
      RequireMember(obj, "name", JsonValue::Kind::kString, line_no, &error);
  if (name == nullptr) return Fail(line_no, error);
  for (const char* key : {"thread", "depth", "start_us", "dur_us"}) {
    const JsonValue* v = obj.Find(key);
    if (v == nullptr || !v->IsNumber() || v->number < 0) {
      return Fail(line_no, std::string("span needs non-negative \"") + key +
                               "\"");
    }
  }
  const JsonValue* attrs =
      RequireMember(obj, "attrs", JsonValue::Kind::kObject, line_no, &error);
  if (attrs == nullptr) return Fail(line_no, error);
  file->span_names.push_back(name->str);
  for (const auto& [key, value] : attrs->members) {
    if (!value.IsNumber() && value.kind != JsonValue::Kind::kNull) {
      return Fail(line_no, "span attr \"" + key + "\" is not numeric");
    }
    file->span_attrs[name->str][key] = value.number;
  }
  return 0;
}

int RequireCounter(const ParsedFile& file, const std::string& name,
                   double min_value) {
  auto it = file.counters.find(name);
  if (it == file.counters.end()) {
    std::fprintf(stderr, "check_metrics: missing counter \"%s\"\n",
                 name.c_str());
    return 1;
  }
  if (it->second < min_value) {
    std::fprintf(stderr, "check_metrics: counter \"%s\" = %g, want >= %g\n",
                 name.c_str(), it->second, min_value);
    return 1;
  }
  return 0;
}

int RequireHistogramCount(const ParsedFile& file, const std::string& name,
                          double min_count) {
  auto it = file.hist_counts.find(name);
  if (it == file.hist_counts.end()) {
    std::fprintf(stderr, "check_metrics: missing histogram \"%s\"\n",
                 name.c_str());
    return 1;
  }
  if (it->second < min_count) {
    std::fprintf(stderr,
                 "check_metrics: histogram \"%s\" count = %g, want >= %g\n",
                 name.c_str(), it->second, min_count);
    return 1;
  }
  return 0;
}

int RequireGauge(const ParsedFile& file, const std::string& name) {
  if (file.gauges.count(name) == 0) {
    std::fprintf(stderr, "check_metrics: missing gauge \"%s\"\n",
                 name.c_str());
    return 1;
  }
  return 0;
}

int CheckTrainMode(const ParsedFile& file) {
  int rc = 0;
  rc |= RequireCounter(file, "train.epochs", 1.0);
  rc |= RequireHistogramCount(file, "train.epoch_seconds", 1.0);
  rc |= RequireHistogramCount(file, "train.forward_seconds", 1.0);
  rc |= RequireHistogramCount(file, "train.backward_seconds", 1.0);
  rc |= RequireHistogramCount(file, "train.optimizer_seconds", 1.0);
  rc |= RequireCounter(file, "pool.chunks", 1.0);
  rc |= RequireGauge(file, "train.loss");
  rc |= RequireGauge(file, "train.grad_norm");
  rc |= RequireGauge(file, "workspace.hits");
  rc |= RequireGauge(file, "workspace.retained_bytes");
  const auto span = file.span_attrs.find("train.epoch");
  if (span == file.span_attrs.end()) {
    std::fprintf(stderr, "check_metrics: no train.epoch span recorded\n");
    rc = 1;
  } else if (span->second.count("epoch") == 0 ||
             span->second.count("loss") == 0) {
    std::fprintf(stderr,
                 "check_metrics: train.epoch span lacks epoch/loss attrs\n");
    rc = 1;
  }
  return rc;
}

int CheckInferMode(const ParsedFile& file) {
  int rc = 0;
  rc |= RequireCounter(file, "infer.requests", 1.0);
  rc |= RequireHistogramCount(file, "infer.request_seconds", 1.0);
  // The serving CLI fronts the session with serve::ResilientServer, so a
  // healthy infer run must show serve-layer traffic too.
  rc |= RequireCounter(file, "serve.requests", 1.0);
  rc |= RequireHistogramCount(file, "serve.request_seconds", 1.0);
  rc |= RequireCounter(file, "infer.plan_cache.misses", 1.0);
  rc |= RequireCounter(file, "infer.plan_cache.hits", 0.0);
  const double requests = file.counters.at("infer.requests");
  const double hits = file.counters.count("infer.plan_cache.hits") > 0
                          ? file.counters.at("infer.plan_cache.hits")
                          : 0.0;
  const double misses = file.counters.at("infer.plan_cache.misses");
  if (hits + misses != requests) {
    std::fprintf(stderr,
                 "check_metrics: plan-cache hits (%g) + misses (%g) != "
                 "requests (%g)\n",
                 hits, misses, requests);
    rc = 1;
  }
  // Every full-mode response (serve.ok) came out of an
  // InferenceSession::TryRun, which counts one infer.requests.
  rc |= RequireCounter(file, "serve.ok", 1.0);
  if (file.counters.count("serve.ok") > 0 &&
      requests < file.counters.at("serve.ok")) {
    std::fprintf(stderr,
                 "check_metrics: infer.requests (%g) < serve.ok (%g)\n",
                 requests, file.counters.at("serve.ok"));
    rc = 1;
  }
  return rc;
}

// serve-loop mode: the long-lived server path (adamgnn_infer --serve-loop).
// Beyond raw serve traffic, the lifecycle must have moved through
// Starting→Ready→Draining→Stopped (>= 3 transitions), at least one drain
// must have completed, the watchdog must have swept at least once, and the
// hot-swap registry's ledger must balance: every reload attempt is either a
// success or a rejection.
int CheckServeMode(const ParsedFile& file) {
  int rc = 0;
  rc |= RequireCounter(file, "serve.requests", 1.0);
  rc |= RequireHistogramCount(file, "serve.request_seconds", 1.0);
  rc |= RequireCounter(file, "serve.lifecycle.transitions", 3.0);
  rc |= RequireGauge(file, "serve.lifecycle.state");
  rc |= RequireCounter(file, "serve.lifecycle.drains", 1.0);
  rc |= RequireCounter(file, "serve.reload.attempts", 1.0);
  rc |= RequireGauge(file, "serve.reload.current_version");
  rc |= RequireCounter(file, "serve.watchdog.sweeps", 1.0);
  const auto counter_or_zero = [&file](const char* name) {
    auto it = file.counters.find(name);
    return it == file.counters.end() ? 0.0 : it->second;
  };
  const double attempts = counter_or_zero("serve.reload.attempts");
  const double success = counter_or_zero("serve.reload.success");
  const double rejected = counter_or_zero("serve.reload.rejected");
  if (attempts != success + rejected) {
    std::fprintf(stderr,
                 "check_metrics: serve.reload.attempts (%g) != success (%g) "
                 "+ rejected (%g)\n",
                 attempts, success, rejected);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string file_path;
  std::string mode = "any";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--file=", 0) == 0) {
      file_path = arg.substr(7);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: check_metrics --file=metrics.jsonl "
                   "[--mode=any|train|infer|serve|off]\n");
      return 2;
    }
  }
  if (file_path.empty() ||
      (mode != "any" && mode != "train" && mode != "infer" &&
       mode != "serve" && mode != "off")) {
    std::fprintf(stderr,
                 "usage: check_metrics --file=metrics.jsonl "
                 "[--mode=any|train|infer|serve|off]\n");
    return 2;
  }

  std::ifstream in(file_path);
  if (!in) {
    std::fprintf(stderr, "check_metrics: cannot open %s\n", file_path.c_str());
    return 2;
  }

  ParsedFile file;
  bool saw_meta = false;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    std::string error;
    if (!JsonParser(line).Parse(&value, &error)) {
      return Fail(line_no, "invalid JSON: " + error);
    }
    if (value.kind != JsonValue::Kind::kObject) {
      return Fail(line_no, "every JSONL line must be an object");
    }
    const JsonValue* type = value.Find("type");
    if (type == nullptr || type->kind != JsonValue::Kind::kString) {
      return Fail(line_no, "missing string \"type\"");
    }

    if (type->str == "meta") {
      if (saw_meta) return Fail(line_no, "duplicate meta line");
      if (line_no != 1) return Fail(line_no, "meta must be the first line");
      saw_meta = true;
      const JsonValue* compiled = value.Find("compiled");
      const JsonValue* enabled = value.Find("enabled");
      const JsonValue* version = value.Find("version");
      if (compiled == nullptr || compiled->kind != JsonValue::Kind::kBool ||
          enabled == nullptr || enabled->kind != JsonValue::Kind::kBool ||
          version == nullptr || !version->IsNumber()) {
        return Fail(line_no, "meta needs version/compiled/enabled");
      }
      file.compiled = compiled->bool_value;
      file.enabled = enabled->bool_value;
    } else if (type->str == "counter") {
      std::string err;
      const JsonValue* name =
          RequireMember(value, "name", JsonValue::Kind::kString, line_no,
                        &err);
      if (name == nullptr) return Fail(line_no, err);
      const JsonValue* v = value.Find("value");
      if (v == nullptr || !v->IsNumber() || v->number < 0) {
        return Fail(line_no, "counter value must be a non-negative number");
      }
      file.counters[name->str] = v->number;
    } else if (type->str == "gauge") {
      std::string err;
      const JsonValue* name =
          RequireMember(value, "name", JsonValue::Kind::kString, line_no,
                        &err);
      if (name == nullptr) return Fail(line_no, err);
      const JsonValue* v = value.Find("value");
      if (v == nullptr ||
          (!v->IsNumber() && v->kind != JsonValue::Kind::kNull)) {
        return Fail(line_no, "gauge value must be a number or null");
      }
      file.gauges[name->str] = v->IsNumber() ? v->number : 0.0;
    } else if (type->str == "histogram") {
      const int rc = CheckHistogram(value, line_no, &file);
      if (rc != 0) return rc;
    } else if (type->str == "span") {
      const int rc = CheckSpan(value, line_no, &file);
      if (rc != 0) return rc;
    } else {
      return Fail(line_no, "unknown line type \"" + type->str + "\"");
    }
  }
  if (!saw_meta) {
    std::fprintf(stderr, "check_metrics: no meta line found\n");
    return 1;
  }

  int rc = 0;
  if (mode == "off") {
    if (file.compiled) {
      std::fprintf(stderr,
                   "check_metrics: expected compiled:false meta (obs built "
                   "out), got compiled:true\n");
      rc = 1;
    }
    if (!file.counters.empty() || !file.gauges.empty() ||
        !file.hist_counts.empty() || !file.span_names.empty()) {
      std::fprintf(stderr,
                   "check_metrics: obs-off file must contain only the meta "
                   "line\n");
      rc = 1;
    }
  } else if (mode == "train") {
    rc = CheckTrainMode(file);
  } else if (mode == "infer") {
    rc = CheckInferMode(file);
  } else if (mode == "serve") {
    rc = CheckServeMode(file);
  }
  if (rc == 0) {
    std::printf(
        "check_metrics: OK (%zu counters, %zu gauges, %zu histograms, %zu "
        "spans, mode=%s)\n",
        file.counters.size(), file.gauges.size(), file.hist_counts.size(),
        file.span_names.size(), mode.c_str());
  }
  return rc;
}
