// Shared machinery of the benchmark binary: options, the timed phase split
// into rounds, process resource readings, the in-memory span recorder of
// traced runs, and the result that main() prints as the last stdout line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured at the top of main(): set-up time runs from here to the first
/// timed operation.
extern Clock::time_point g_process_start;

double SecondsBetween(Clock::time_point a, Clock::time_point b);

struct Options {
  std::string workload = "slice_churn";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the workload's journal files (inside the checkout).
  std::string scratch_dir;
  /// Directory the traced run writes its span file into.
  std::string out_dir;
};

/// Process-wide CPU (user + sys, all threads) and voluntary context
/// switches from getrusage(RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;
  std::int64_t voluntary_switches = 0;
};
Usage ReadUsage();

/// Peak resident set of this process image (VmHWM). Unlike ru_maxrss, it
/// does not inherit the launcher's high-water mark across exec.
double PeakRssMib();

/// CPU seconds (utime + stime) of one thread of this process, read from
/// /proc/self/task/<tid>/stat. Returns -1 when the thread is gone.
double ThreadCpuSeconds(pid_t tid);
/// Thread ids of this process, ascending.
std::vector<pid_t> ThreadIds();

/// The timed phase: whole rounds of the workload's operations, repeated
/// until the run length has elapsed. Throughput and CPU per op are medians
/// over the rounds, so a host slowdown that covers a few rounds of a run
/// does not move them; the whole-phase figures are kept beside them.
class TimedPhase {
 public:
  explicit TimedPhase(double seconds) : seconds_(seconds) {}

  /// True while another round should start (always true before the first).
  bool KeepGoing() const;
  void BeginRound();
  void EndRound(std::uint64_t ops);

  std::uint64_t ops() const { return ops_; }
  std::size_t rounds() const { return rounds_.size(); }
  double wall_s() const;
  Clock::time_point first_start() const { return first_start_; }

  /// Each round's ops per second, in order.
  std::vector<double> RoundRates() const;
  /// Median over rounds of the round's ops / its wall time.
  double OpsPerSecond() const;
  /// Median over rounds of the round's process CPU (all threads) / its ops.
  double CpuUsPerOp() const;
  /// Ops completed / wall time of the whole phase.
  double PhaseOpsPerSecond() const;
  /// Process CPU (all threads) in the whole phase / ops.
  double PhaseCpuUsPerOp() const;
  /// Whole-phase voluntary context switches per op.
  double VoluntarySwitchesPerOp() const;

 private:
  struct Round {
    std::uint64_t ops = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };
  double seconds_;
  bool started_ = false;
  Clock::time_point first_start_;
  Clock::time_point round_start_;
  Clock::time_point last_end_;
  Usage round_usage_;
  Usage first_usage_;
  Usage last_usage_;
  std::vector<Round> rounds_;
  std::uint64_t ops_ = 0;
};

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// In-memory spans around the benchmark's own calls into the program's
/// modules (traced runs only). Spans nest per thread of the recorder's
/// owner (the benchmark's main thread); written out once at exit.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t op = 0;
  };

  /// Spans beyond the cap are counted but not kept, so a traced run of a
  /// million-command workload keeps bounded memory.
  static constexpr std::size_t kMaxSpans = 200000;

  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  /// Returns the span's index, or -1 when disabled or over the cap.
  std::int64_t Begin(const char* name, std::uint64_t op);
  void End(std::int64_t index);

  std::uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span (JSON lines). Returns false on I/O
  /// failure.
  bool WriteJsonLines(const std::string& path) const;
  /// Per span name: count, total time and self time (duration minus the
  /// part covered by child spans), in seconds.
  struct NameSummary {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, NameSummary> Summarize() const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, std::uint64_t op = 0)
      : recorder_(recorder),
        index_(recorder.enabled() ? recorder.Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) recorder_.End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::int64_t index_;
};

/// What one workload run reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any correctness check failed.
  bool correct = true;
  /// Check failures, printed to stderr.
  std::vector<std::string> problems;
  /// The timed phase, owned by main(); the workload runs its rounds on it.
  TimedPhase* phase = nullptr;
  /// Per-layer metrics by name (traced runs); absent names print as 0.
  std::map<std::string, double> layer;

  /// Records a failed check covering `ops` operations.
  void Fail(const std::string& what, std::uint64_t ops);
};

/// A per-layer metric the benchmark defines: name, unit, direction.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& LayerMetricSpecs();

/// Workload entry points. Each builds its inputs from options.seed, runs the
/// timed phase for options.seconds, and checks the program's outputs.
void RunFleetServe(const Options& options, SpanRecorder& spans, Report& report);
void RunFleetRecover(const Options& options, SpanRecorder& spans, Report& report);
void RunSliceChurn(const Options& options, SpanRecorder& spans, Report& report);
void RunDcnFlows(const Options& options, SpanRecorder& spans, Report& report);

/// Fires every correctness check on a deliberately corrupted input; returns
/// the number of checks that failed to fire (0 = every check has teeth).
int RunSelfTest(std::uint64_t* checks_run);

}  // namespace perfbench
