#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

Clock::time_point g_process_start;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Usage ReadUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  out.voluntary_switches = usage.ru_nvcsw;
  return out;
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

double ThreadCpuSeconds(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1.0;
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  // Field 3 (state) is the first token; utime and stime are fields 14, 15.
  long long utime = 0, stime = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::atoll(field.c_str());
    if (index == 15) stime = std::atoll(field.c_str());
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    tids.push_back(static_cast<pid_t>(std::atol(entry->d_name)));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

// --- timed phase -------------------------------------------------------------

bool TimedPhase::KeepGoing() const {
  if (!started_) return true;
  return SecondsBetween(first_start_, last_end_) < seconds_;
}

void TimedPhase::BeginRound() {
  if (!started_) {
    started_ = true;
    first_usage_ = ReadUsage();
    first_start_ = Clock::now();
  }
  round_usage_ = ReadUsage();
  round_start_ = Clock::now();
}

void TimedPhase::EndRound(std::uint64_t ops) {
  last_end_ = Clock::now();
  last_usage_ = ReadUsage();
  rounds_.push_back(Round{ops, SecondsBetween(round_start_, last_end_),
                          last_usage_.cpu_s - round_usage_.cpu_s});
  ops_ += ops;
}

double TimedPhase::wall_s() const {
  return started_ ? SecondsBetween(first_start_, last_end_) : 0.0;
}

std::vector<double> TimedPhase::RoundRates() const {
  std::vector<double> rates;
  for (const Round& round : rounds_) {
    if (round.ops > 0 && round.wall_s > 0.0) {
      rates.push_back(static_cast<double>(round.ops) / round.wall_s);
    }
  }
  return rates;
}

double TimedPhase::OpsPerSecond() const { return Quantile(RoundRates(), 0.5); }

double TimedPhase::CpuUsPerOp() const {
  std::vector<double> per_op;
  for (const Round& round : rounds_) {
    if (round.ops > 0) per_op.push_back(round.cpu_s * 1e6 / static_cast<double>(round.ops));
  }
  return Quantile(per_op, 0.5);
}

double TimedPhase::PhaseOpsPerSecond() const {
  const double wall = wall_s();
  return wall > 0.0 ? static_cast<double>(ops_) / wall : 0.0;
}

double TimedPhase::PhaseCpuUsPerOp() const {
  if (ops_ == 0) return 0.0;
  return (last_usage_.cpu_s - first_usage_.cpu_s) * 1e6 / static_cast<double>(ops_);
}

double TimedPhase::VoluntarySwitchesPerOp() const {
  if (ops_ == 0) return 0.0;
  return static_cast<double>(last_usage_.voluntary_switches -
                             first_usage_.voluntary_switches) /
         static_cast<double>(ops_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// --- spans -------------------------------------------------------------------

namespace {
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_process_start)
      .count();
}
}  // namespace

std::int64_t SpanRecorder::Begin(const char* name, std::uint64_t op) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"op\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(out) == 0;
}

std::map<std::string, SpanRecorder::NameSummary> SpanRecorder::Summarize() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, NameSummary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double total = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    NameSummary& summary = out[spans_[i].name];
    ++summary.count;
    summary.total_s += total;
    summary.self_s += total - child_s[i];
  }
  return out;
}

// --- report ------------------------------------------------------------------

void Report::Fail(const std::string& what, std::uint64_t ops) {
  correct = false;
  problems.push_back(what);
  failed += ops;
}

const std::vector<LayerMetricSpec>& LayerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"fleet.submit_ns_per_op", "ns"},
      {"fleet.offer_refusals_per_kop", "1/kop"},
      {"fleet.batch_commands_mean", "count"},
      {"fleet.journal_thread_cpu_s", "s"},
      {"fleet.apply_thread_cpu_s", "s"},
      {"fleet.recover_all_s", "s"},
      {"journal.shard_recovery_ms_max", "ms"},
      {"journal.shard_recovery_ms_sum", "ms"},
      {"journal.fsyncs_per_kop", "1/kop"},
      {"journal.bytes_per_op", "B/op"},
      {"journal.compactions", "count"},
      {"journal.records_scanned", "count"},
      {"journal.records_replayed", "count"},
      {"svc.snapshots", "count"},
      {"svc.apply_reject_share", "ratio"},
      {"core.allocate_us_p50", "us"},
      {"core.allocate_us_p99", "us"},
      {"core.release_us_p50", "us"},
      {"core.release_us_p99", "us"},
      {"core.accept_share", "ratio"},
      {"core.busy_cubes_mean", "cubes"},
      {"ocs.reconfigure_calls_per_op", "1/op"},
      {"ocs.connects_per_op", "1/op"},
      {"ocs.disconnects_per_op", "1/op"},
      {"tpu.modelled_switch_ms_per_op", "ms/op"},
      {"sim.simulate_flows_s", "s"},
      {"sim.host_us_per_flow", "us"},
      {"sim.flows_completed", "count"},
      {"sim.mean_fct_ms.uniform", "ms"},
      {"sim.mean_fct_ms.engineered", "ms"},
      {"sim.p99_fct_ms.engineered", "ms"},
      {"core.topology_engineering_s", "s"},
      {"proc.voluntary_ctx_switches_per_op", "1/op"},
  };
  return specs;
}

}  // namespace perfbench
