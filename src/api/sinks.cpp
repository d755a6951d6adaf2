#include "src/api/sinks.h"

#include <charconv>
#include <concepts>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/rt/governor.h"

namespace shedmon::api {

namespace {

std::ofstream OpenOrThrow(const std::string& path) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file.is_open()) {
    throw std::runtime_error("bin sink: cannot open '" + path + "' for writing");
  }
  return file;
}

// Row formatting into a reused string: the bytes operator<< writes on a
// default-formatted std::ostream (integers in decimal, doubles as %g at
// precision 6), without building a stream per row.
void Append(std::string& out, char c) { out.push_back(c); }
void Append(std::string& out, const char* text) { out.append(text); }
void Append(std::string& out, double value) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 6).ptr;
  out.append(buf, end);
}
template <std::integral T>
void Append(std::string& out, T value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, end);
}
template <typename... Ts>
void AppendAll(std::string& out, const Ts&... values) {
  (Append(out, values), ...);
}

// Query names are plain identifiers today, but a user query can be named
// anything; escape the characters that would break a JSON string.
void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

ResilientSinkBase::ResilientSinkBase(std::ostream& out, std::string name)
    : out_(&out), name_(std::move(name)) {}

ResilientSinkBase::ResilientSinkBase(const std::string& path, std::string name)
    : file_(OpenOrThrow(path)), out_(&file_), name_(std::move(name)) {}

void ResilientSinkBase::EnableResilience(const rt::RetryPolicy& policy,
                                         std::shared_ptr<rt::Clock> clock) {
  if (clock == nullptr) {
    clock = rt::DefaultClock();
  }
  writer_ = std::make_unique<rt::ResilientWriter>(*out_, policy, std::move(clock));
  writer_->SetFaultInjector(injector_);
  writer_->Attach(metrics_, logger_, name_);
}

void ResilientSinkBase::AttachRt(rt::FaultInjector* injector, obs::MetricsRegistry* metrics,
                                 obs::JsonlLogger* logger) {
  injector_ = injector;
  metrics_ = metrics;
  logger_ = logger;
  if (writer_ != nullptr) {
    writer_->SetFaultInjector(injector_);
    writer_->Attach(metrics_, logger_, name_);
  }
}

void ResilientSinkBase::WriteRow(const std::string& row) {
  if (writer_ != nullptr) {
    writer_->Write(row);
  } else {
    out_->write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

void ResilientSinkBase::OnRunEnd() {
  if (writer_ != nullptr) {
    writer_->Flush();
  } else {
    out_->flush();
  }
}

CsvBinSink::CsvBinSink(std::ostream& out) : ResilientSinkBase(out, "csv") {}

CsvBinSink::CsvBinSink(const std::string& path) : ResilientSinkBase(path, "csv") {}

void CsvBinSink::OnBin(const core::BinLog& log, const BinStats& stats) {
  std::string& row = row_;
  row.clear();
  if (!header_written_) {
    row += "bin,start_us,num_queries,packets_in,packets_dropped,packets_unsampled,"
           "batch_dropped,overload,predicted_cycles,avail_cycles,query_cycles,ps_cycles,"
           "ls_cycles,como_cycles,backlog_cycles,rtthresh,utilization,drop_fraction,"
           "shed_fraction,degradation,degradation_rung,deadline_missed,deadline_overrun_us\n";
    header_written_ = true;
  }
  AppendAll(row, stats.bin_index, ',', log.start_us, ',', stats.num_queries, ',');
  AppendAll(row, log.packets_in, ',', log.packets_dropped, ',', log.packets_unsampled, ',');
  AppendAll(row, log.batch_dropped ? 1 : 0, ',', log.overload ? 1 : 0, ',');
  AppendAll(row, log.predicted_cycles, ',', log.avail_cycles, ',', log.query_cycles, ',');
  AppendAll(row, log.ps_cycles, ',', log.ls_cycles, ',', log.como_cycles, ',');
  AppendAll(row, log.backlog_cycles, ',', log.rtthresh, ',', stats.utilization, ',');
  AppendAll(row, stats.drop_fraction, ',', stats.shed_fraction, ',');
  AppendAll(row, static_cast<int>(log.degradation), ',');
  AppendAll(row, rt::DegradeActionName(log.degradation), ',');
  AppendAll(row, log.deadline_missed ? 1 : 0, ',', log.deadline_overrun_us, '\n');
  WriteRow(row);
}

JsonlBinSink::JsonlBinSink(std::ostream& out) : ResilientSinkBase(out, "jsonl") {}

JsonlBinSink::JsonlBinSink(const std::string& path) : ResilientSinkBase(path, "jsonl") {}

void JsonlBinSink::OnBin(const core::BinLog& log, const BinStats& stats) {
  auto flag = [](bool b) { return b ? "true" : "false"; };
  std::string& out = row_;
  out.clear();
  AppendAll(out, "{\"bin\":", stats.bin_index, ",\"start_us\":", log.start_us);
  AppendAll(out, ",\"packets_in\":", log.packets_in);
  AppendAll(out, ",\"packets_dropped\":", log.packets_dropped);
  AppendAll(out, ",\"packets_unsampled\":", log.packets_unsampled);
  AppendAll(out, ",\"batch_dropped\":", flag(log.batch_dropped));
  AppendAll(out, ",\"overload\":", flag(log.overload));
  AppendAll(out, ",\"predicted_cycles\":", log.predicted_cycles);
  AppendAll(out, ",\"avail_cycles\":", log.avail_cycles);
  AppendAll(out, ",\"query_cycles\":", log.query_cycles);
  AppendAll(out, ",\"ps_cycles\":", log.ps_cycles, ",\"ls_cycles\":", log.ls_cycles);
  AppendAll(out, ",\"como_cycles\":", log.como_cycles);
  AppendAll(out, ",\"backlog_cycles\":", log.backlog_cycles);
  AppendAll(out, ",\"utilization\":", stats.utilization);
  AppendAll(out, ",\"degradation\":", static_cast<int>(log.degradation));
  AppendAll(out, ",\"degradation_rung\":\"", rt::DegradeActionName(log.degradation), '"');
  AppendAll(out, ",\"deadline_missed\":", flag(log.deadline_missed));
  AppendAll(out, ",\"deadline_overrun_us\":", log.deadline_overrun_us, ",\"queries\":[");
  for (size_t q = 0; q < stats.query_names.size(); ++q) {
    if (q > 0) {
      out += ',';
    }
    AppendJsonString(out, stats.query_names[q]);
  }
  out += "],\"rate\":[";
  for (size_t q = 0; q < log.rate.size(); ++q) {
    AppendAll(out, q > 0 ? "," : "", log.rate[q]);
  }
  out += "],\"per_query_cycles\":[";
  for (size_t q = 0; q < log.per_query_cycles.size(); ++q) {
    AppendAll(out, q > 0 ? "," : "", log.per_query_cycles[q]);
  }
  out += "],\"disabled\":[";
  for (size_t q = 0; q < log.disabled.size(); ++q) {
    AppendAll(out, q > 0 ? "," : "", flag(log.disabled[q]));
  }
  out += "]}\n";
  WriteRow(out);
}

}  // namespace shedmon::api
