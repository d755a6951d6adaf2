#include "src/api/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <string>

#include "src/api/pipeline.h"

namespace shedmon::api {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void Expected(std::string_view what, std::string_view value) {
  throw ConfigError("expected " + std::string(what) + ", got '" + std::string(value) + "'");
}

// from_chars takes neither whitespace nor a sign nor trailing text, so the
// whole value must be the number.
template <typename T>
T FromChars(std::string_view value, std::string_view what) {
  T parsed{};
  const auto [end, error] = std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (value.empty() || error != std::errc() || end != value.data() + value.size()) {
    Expected(what, value);
  }
  return parsed;
}

uint64_t Unsigned(std::string_view value) {
  return FromChars<uint64_t>(value, "an unsigned integer");
}

double Number(std::string_view value) {
  const double parsed = FromChars<double>(value, "a number");
  if (!std::isfinite(parsed)) {
    Expected("a finite number", value);
  }
  return parsed;
}

bool Bool(std::string_view value) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "off" || value == "no") {
    return false;
  }
  Expected("a boolean (true|false|1|0|on|off|yes|no)", value);
}

uint16_t Port(std::string_view value) {
  const uint64_t port = Unsigned(value);
  if (port > 65535) {
    Expected("a port (0-65535)", value);
  }
  return static_cast<uint16_t>(port);
}

template <typename E>
struct Name {
  std::string_view text;
  E value;
};

// One list of names per enum; aliases are simply further entries.
template <typename E, size_t N>
E Enum(std::string_view value, const Name<E> (&names)[N]) {
  std::string accepted;
  for (const Name<E>& name : names) {
    if (name.text == value) {
      return name.value;
    }
    accepted.append(accepted.empty() ? "" : "|").append(name.text);
  }
  Expected(accepted, value);
}

constexpr Name<core::ShedderKind> kShedders[] = {{"predictive", core::ShedderKind::kPredictive},
                                                 {"reactive", core::ShedderKind::kReactive},
                                                 {"noshed", core::ShedderKind::kNoShed},
                                                 {"none", core::ShedderKind::kNoShed}};
constexpr Name<shed::StrategyKind> kStrategies[] = {{"eq_srates", shed::StrategyKind::kEqSrates},
                                                    {"mmfs_cpu", shed::StrategyKind::kMmfsCpu},
                                                    {"mmfs_pkt", shed::StrategyKind::kMmfsPkt},
                                                    {"eq", shed::StrategyKind::kEqSrates},
                                                    {"cpu", shed::StrategyKind::kMmfsCpu},
                                                    {"pkt", shed::StrategyKind::kMmfsPkt}};
constexpr Name<core::OracleKind> kOracles[] = {{"model", core::OracleKind::kModel},
                                               {"measured", core::OracleKind::kMeasured}};
constexpr Name<predict::PredictorKind> kPredictors[] = {{"mlr", predict::PredictorKind::kMlr},
                                                        {"slr", predict::PredictorKind::kSlr},
                                                        {"ewma", predict::PredictorKind::kEwma}};
constexpr Name<rt::OverflowPolicy> kOverflowPolicies[] = {
    {"block", rt::OverflowPolicy::kBlock},
    {"drop-newest", rt::OverflowPolicy::kDropNewest},
    {"drop-oldest", rt::OverflowPolicy::kDropOldest}};

// Prefixes a rejected value's message with the key or flag it came from.
template <typename F>
auto Labelled(std::string_view what, F&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    throw ConfigError(std::string(what) + ": " + e.what());
  }
}

[[noreturn]] void Fail(std::string_view origin, size_t line_no, const std::string& what) {
  throw ConfigError(std::string(origin) + ":" + std::to_string(line_no) + ": " + what);
}

}  // namespace

std::span<const ConfigKey> ConfigKeys() {
  // A friend of PipelineBuilder, so rows without a fluent setter of their
  // own (config_ fields, the ingest policy half of IngestCap) reach the
  // builder's fields directly.
  using B = PipelineBuilder;
  using V = std::string_view;
  static const ConfigKey kKeys[] = {
      {"system.time_bin_us", "bin-us", [](B& b, V v) { b.TimeBin(Unsigned(v)); }},
      {"system.cycles_per_bin", "capacity", [](B& b, V v) { b.CyclesPerBin(Number(v)); }},
      {"system.shedder", "shedder", [](B& b, V v) { b.Shedder(Enum(v, kShedders)); }},
      {"system.strategy", "strategy", [](B& b, V v) { b.Strategy(Enum(v, kStrategies)); }},
      {"system.threads", "threads", [](B& b, V v) { b.Threads(Unsigned(v)); }},
      {"system.seed", "", [](B& b, V v) { b.Seed(Unsigned(v)); }},
      {"system.buffer_bins", "", [](B& b, V v) { b.BufferBins(Number(v)); }},
      {"system.ewma_alpha", "", [](B& b, V v) { b.config_.ewma_alpha = Number(v); }},
      {"system.como_overhead", "",
       [](B& b, V v) { b.config_.como_overhead_fraction = Number(v); }},
      {"system.custom_shedding", "custom", [](B& b, V v) { b.CustomShedding(Bool(v)); }, true},
      {"system.oracle", "oracle", [](B& b, V v) { b.Oracle(Enum(v, kOracles)); }},
      {"system.track_accuracy", "", [](B& b, V v) { b.TrackAccuracy(Bool(v)); }},
      {"system.default_min_rates", "", [](B& b, V v) { b.DefaultMinRates(Bool(v)); }},
      {"predictor.kind", "",
       [](B& b, V v) { b.config_.predictor.kind = Enum(v, kPredictors); }},
      {"predictor.history", "", [](B& b, V v) { b.config_.predictor.history = Unsigned(v); }},
      {"predictor.fcbf_threshold", "",
       [](B& b, V v) { b.config_.predictor.fcbf_threshold = Number(v); }},
      {"predictor.ewma_alpha", "",
       [](B& b, V v) { b.config_.predictor.ewma_alpha = Number(v); }},
      {"queries.add", "queries",
       [](B& b, V v) {
         for (size_t start = 0; start <= v.size();) {
           const size_t comma = std::min(v.find(',', start), v.size());
           if (const V name = Trim(v.substr(start, comma - start)); !name.empty()) {
             b.AddQuery(name);
           }
           start = comma + 1;
         }
       },
       false, [](B& b) { b.queries_.clear(); }},
      {"sinks.csv", "csv", [](B& b, V v) { b.CsvTo(std::string(v)); }},
      {"sinks.jsonl", "jsonl", [](B& b, V v) { b.JsonlTo(std::string(v)); }},
      {"sinks.log", "", [](B& b, V v) { b.LogTo(std::string(v)); }},
      {"rt.deadline", "deadline", [](B& b, V v) { b.Deadline(Number(v)); }},
      {"rt.ingest_cap", "ingest-cap",
       [](B& b, V v) { b.IngestCap(Unsigned(v), b.ingest_policy_); }},
      {"rt.ingest_policy", "ingest-policy",
       [](B& b, V v) { b.IngestCap(b.ingest_cap_, Enum(v, kOverflowPolicies)); }},
      {"rt.fault_plan", "fault-plan",
       [](B& b, V v) { b.InjectFaults(rt::FaultPlan::Parse(v)); }},
      {"rt.sink_retries", "sink-retries",
       [](B& b, V v) {
         rt::RetryPolicy retry;
         retry.max_retries = Unsigned(v);
         b.SinkRetry(retry);
       }},
      {"rt.checkpoint", "checkpoint", [](B& b, V v) { b.CheckpointTo(std::string(v)); }},
      {"rt.checkpoint_every", "checkpoint-every",
       [](B& b, V v) { b.CheckpointEvery(Unsigned(v)); }},
      {"obs.serve", "serve", [](B& b, V v) { b.ServeOn(Port(v)); }},
  };
  return kKeys;
}

const ConfigKey* FindKey(std::string_view name) {
  for (const ConfigKey& key : ConfigKeys()) {
    if (key.name == name) {
      return &key;
    }
  }
  return nullptr;
}

const ConfigKey* FindFlag(std::string_view flag) {
  for (const ConfigKey& key : ConfigKeys()) {
    if (!key.flag.empty() && key.flag == flag) {
      return &key;
    }
  }
  return nullptr;
}

void ApplySettings(PipelineBuilder& builder, std::span<const Setting> settings) {
  std::vector<const ConfigKey*> reset;  // list keys this source already cleared
  for (const Setting& setting : settings) {
    const ConfigKey& key = *setting.key;
    if (key.reset != nullptr && std::find(reset.begin(), reset.end(), &key) == reset.end()) {
      key.reset(builder);
      reset.push_back(&key);
    }
    Labelled(setting.origin, [&] { key.apply(builder, setting.value); });
  }
}

std::vector<Setting> ReadConfig(std::istream& in, std::string_view origin) {
  std::vector<Setting> settings;
  std::string section;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view text = line;
    if (const size_t comment = text.find_first_of("#;"); comment != std::string_view::npos) {
      text = text.substr(0, comment);
    }
    text = Trim(text);
    if (text.empty()) {
      continue;
    }
    if (text.front() == '[') {
      if (text.back() != ']' || text.size() < 3) {
        Fail(origin, line_no, "malformed section header '" + std::string(text) + "'");
      }
      section = std::string(Trim(text.substr(1, text.size() - 2)));
      const auto keys = ConfigKeys();
      if (std::none_of(keys.begin(), keys.end(), [&](const ConfigKey& key) {
            return key.name.substr(0, key.name.find('.')) == section;
          })) {
        Fail(origin, line_no, "unknown section [" + section + "]");
      }
      continue;
    }
    const size_t eq = text.find('=');
    if (eq == std::string_view::npos) {
      Fail(origin, line_no, "expected 'key = value', got '" + std::string(text) + "'");
    }
    const std::string key(Trim(text.substr(0, eq)));
    if (key.empty()) {
      Fail(origin, line_no, "empty key");
    }
    if (section.empty()) {
      Fail(origin, line_no, "key '" + key + "' appears before any [section]");
    }
    const std::string name = section + "." + key;
    const ConfigKey* row = FindKey(name);
    if (row == nullptr) {
      Fail(origin, line_no, "unknown [" + section + "] key '" + key + "'");
    }
    settings.push_back({row, std::string(Trim(text.substr(eq + 1))),
                        std::string(origin) + ":" + std::to_string(line_no) + ": " + name});
  }
  return settings;
}

std::vector<Setting> ReadConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError("cannot open config file: " + path);
  }
  return ReadConfig(in, path);
}

PipelineBuilder ParseConfig(std::istream& in, std::string_view origin) {
  PipelineBuilder builder;
  ApplySettings(builder, ReadConfig(in, origin));
  return builder;
}

PipelineBuilder ParseConfigFile(const std::string& path) {
  PipelineBuilder builder;
  ApplySettings(builder, ReadConfigFile(path));
  return builder;
}

uint64_t ParseUnsigned(std::string_view what, std::string_view value) {
  return Labelled(what, [&] { return Unsigned(value); });
}

double ParseNumber(std::string_view what, std::string_view value) {
  return Labelled(what, [&] { return Number(value); });
}

bool ParseBool(std::string_view what, std::string_view value) {
  return Labelled(what, [&] { return Bool(value); });
}

rt::OverflowPolicy ParseOverflowPolicy(std::string_view what, std::string_view value) {
  return Labelled(what, [&] { return Enum(value, kOverflowPolicies); });
}

}  // namespace shedmon::api
