#pragma once

#include <cstdint>
#include <istream>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/rt/bounded_queue.h"

namespace shedmon::api {

class PipelineBuilder;

// Thrown for invalid pipeline configuration: by PipelineBuilder::Build()'s
// eager validation and by the config-key parsers. Derives from
// std::invalid_argument so pre-existing callers that caught the old exception
// type keep working.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// The pipeline's one config schema. Every key is settable in an INI config
// file as `key = value` under its [section], and the keys with a flag also
// from the shedmon CLI as `--flag value`:
//
//   [system]
//   time_bin_us       --bin-us            unsigned (default 100000)
//   cycles_per_bin    --capacity          number; 0 = the oracle's budget
//   shedder           --shedder           predictive | reactive | noshed (none)
//   strategy          --strategy          eq_srates | mmfs_cpu | mmfs_pkt (eq | cpu | pkt)
//   threads           --threads           unsigned
//   seed                                  unsigned
//   buffer_bins                           number
//   ewma_alpha                            number
//   como_overhead                         number
//   custom_shedding   --custom            boolean
//   oracle            --oracle            model | measured
//   track_accuracy                        boolean
//   default_min_rates                     boolean
//   [predictor]
//   kind                                  mlr | slr | ewma
//   history                               unsigned
//   fcbf_threshold                        number
//   ewma_alpha                            number
//   [queries]
//   add               --queries           query names (Table 2.2), comma-separated
//   [sinks]
//   csv               --csv               per-bin CSV sink path
//   jsonl             --jsonl             per-bin JSONL sink path
//   log                                   JSONL event log path
//   [rt]
//   deadline          --deadline          number: per-bin budget as a bin fraction
//   ingest_cap        --ingest-cap        unsigned: open-bin record bound
//   ingest_policy     --ingest-policy     drop-newest | drop-oldest
//   fault_plan        --fault-plan        rt::FaultPlan spec, comma-separated
//   sink_retries      --sink-retries      unsigned
//   checkpoint        --checkpoint        checkpoint file path
//   checkpoint_every  --checkpoint-every  unsigned (bins)
//   [obs]
//   serve             --serve             HTTP port (0 = ephemeral)
//
// Parenthesized names are aliases. Numbers must be the whole value ("0.5x"
// is an error); booleans are true|false|1|0|on|off|yes|no, and a bare
// boolean flag (`--custom`) means true. Any other value, and any unknown
// section, key or flag, throws ConfigError naming the key and what it
// accepts. '#' and ';' start comments; whitespace around keys and values is
// ignored. Values are *parsed* strictly here but *validated* (ranges,
// cross-field rules, query names) by PipelineBuilder::Build(), so there is
// exactly one validation path no matter where a config comes from.

// One row of the schema.
struct ConfigKey {
  std::string_view name;  // "section.key" in a config file
  std::string_view flag;  // CLI spelling without "--"; empty = config file only
  // Parses `value` strictly and applies it to the builder; throws
  // std::invalid_argument saying what the key accepts.
  void (*apply)(PipelineBuilder& builder, std::string_view value) = nullptr;
  // On the command line a bare `--flag` means true; a value only as --flag=value.
  bool boolean = false;
  // List keys only (the query roster): clears what earlier sources set, so a
  // source that names the key replaces the list instead of extending it.
  void (*reset)(PipelineBuilder& builder) = nullptr;
};

std::span<const ConfigKey> ConfigKeys();
const ConfigKey* FindKey(std::string_view name);   // null when unknown
const ConfigKey* FindFlag(std::string_view flag);  // null when unknown

// One `key = value` assignment; `origin` ("bins.ini:12: system.strategy",
// "--strategy") prefixes the error when the value is rejected.
struct Setting {
  const ConfigKey* key = nullptr;
  std::string value;
  std::string origin;
};

// Applies one source's settings (a config file, the command line, a defaults
// list) in order. Each setting overrides what earlier sources set; a list key
// named by this source replaces the earlier list. Throws ConfigError.
void ApplySettings(PipelineBuilder& builder, std::span<const Setting> settings);

// Reads an INI config into settings, checking syntax and key names (values
// are checked when applied). Throws ConfigError naming the offending line,
// or when the file cannot be opened.
std::vector<Setting> ReadConfig(std::istream& in, std::string_view origin = "<stream>");
std::vector<Setting> ReadConfigFile(const std::string& path);
// Read + ApplySettings onto a default builder.
PipelineBuilder ParseConfig(std::istream& in, std::string_view origin = "<stream>");
PipelineBuilder ParseConfigFile(const std::string& path);

// The strict value parsers behind the table, for the CLI's own flags.
// `what` names the flag in the ConfigError.
uint64_t ParseUnsigned(std::string_view what, std::string_view value);
double ParseNumber(std::string_view what, std::string_view value);
bool ParseBool(std::string_view what, std::string_view value);
rt::OverflowPolicy ParseOverflowPolicy(std::string_view what, std::string_view value);

}  // namespace shedmon::api

namespace shedmon {
using api::ConfigError;
}  // namespace shedmon
