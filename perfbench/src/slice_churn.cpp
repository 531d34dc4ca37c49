// slice_churn: a full TPU v4 superpod (64 cubes, 48 Palomar OCSes) under
// core::SliceScheduler's reconfigurable policy, driven by the benchmark's
// own job trace. Every Allocate and Release is checked against the
// benchmark's cube ledger as it returns.
#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "harness.h"
#include "tpu/superpod.h"

namespace perfbench {

namespace lw = lightwave;

namespace {

constexpr int kMaxJobCubes = 16;
/// Offered load in cubes over the pod's 64: mean size 8.5 cubes x arrival
/// rate x mean holding time. Above 1, so both accepts and rejects occur.
constexpr double kOfferedLoad = 1.5;
constexpr double kMeanHolding = 1.0;
constexpr std::uint64_t kRoundCalls = 400;
constexpr std::uint64_t kWarmupCalls = 1500;

lw::tpu::SliceShape CompactShape(int cubes) {
  lw::tpu::SliceShape best{1, 1, cubes};
  int best_spread = cubes;
  for (const auto& s : lw::tpu::EnumerateCanonicalShapes(cubes)) {
    const int spread = std::max({s.a, s.b, s.c}) - std::min({s.a, s.b, s.c});
    if (spread < best_spread) {
      best_spread = spread;
      best = s;
    }
  }
  return best;
}

/// The job trace: Poisson arrivals, exponential holding times, sizes uniform
/// over 1..16 cubes, generated on demand from the seed.
class JobTrace {
 public:
  struct Event {
    double time = 0.0;
    bool arrival = true;
    int cubes = 0;
    double holding = 0.0;
    /// Departures: the slice to release.
    lw::tpu::SliceId slice = 0;
  };

  JobTrace(std::uint64_t seed, int pod_cubes)
      : rng_(seed),
        arrival_rate_(kOfferedLoad * pod_cubes / ((1.0 + kMaxJobCubes) / 2.0) / kMeanHolding) {
    next_arrival_ = rng_.Exponential(arrival_rate_);
  }

  /// The next event in time order.
  Event Next() {
    if (!departures_.empty() && departures_.top().time < next_arrival_) {
      Event e = departures_.top();
      departures_.pop();
      return e;
    }
    Event e;
    e.time = next_arrival_;
    e.arrival = true;
    e.cubes = 1 + static_cast<int>(rng_.UniformInt(kMaxJobCubes));
    e.holding = rng_.Exponential(1.0 / kMeanHolding);
    next_arrival_ += rng_.Exponential(arrival_rate_);
    return e;
  }

  void ScheduleDeparture(double time, lw::tpu::SliceId slice) {
    Event e;
    e.time = time;
    e.arrival = false;
    e.slice = slice;
    departures_.push(e);
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const { return a.time > b.time; }
  };
  lw::common::Rng rng_;
  double arrival_rate_;
  double next_arrival_ = 0.0;
  std::priority_queue<Event, std::vector<Event>, Later> departures_;
};

}  // namespace

void RunSliceChurn(const Options& options, SpanRecorder& spans, Report& report) {
  lw::tpu::Superpod pod(options.seed * 7919u + 3u);
  lw::core::SliceScheduler scheduler(pod, lw::core::AllocationPolicy::kReconfigurable);
  JobTrace trace(options.seed, pod.cube_count());
  std::map<lw::tpu::SliceId, int> ledger;  // live slice -> cubes
  int ledger_busy = 0;
  std::uint64_t allocates = 0, accepted = 0;
  double busy_sum = 0.0;
  std::vector<double> allocate_us, release_us;
  const bool timed_calls = spans.enabled();

  // One Allocate or Release, checked against the ledger as it returns.
  const auto call = [&](std::uint64_t op) {
    const JobTrace::Event event = trace.Next();
    ++report.attempted;
    if (event.arrival) {
      const lw::tpu::SliceShape shape = CompactShape(event.cubes);
      const int ledger_free = pod.cube_count() - ledger_busy;
      lw::common::Result<lw::tpu::SliceId> allocated = lw::tpu::SliceId{0};
      {
        ScopedSpan span(spans, "core.SliceScheduler::Allocate", op);
        const auto start = timed_calls ? Clock::now() : Clock::time_point{};
        allocated = scheduler.Allocate(shape);
        if (timed_calls) allocate_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
      }
      ++allocates;
      if (const std::string problem =
              CheckAllocateOutcome(allocated.ok(), ledger_free, shape.CubeCount());
          !problem.empty()) {
        report.Fail("call " + std::to_string(op) + ": " + problem, 1);
      }
      if (allocated.ok()) {
        ++accepted;
        ledger[allocated.value()] = shape.CubeCount();
        ledger_busy += shape.CubeCount();
        trace.ScheduleDeparture(event.time + event.holding, allocated.value());
      }
    } else {
      lw::common::Status released;
      {
        ScopedSpan span(spans, "core.SliceScheduler::Release", op);
        const auto start = timed_calls ? Clock::now() : Clock::time_point{};
        released = scheduler.Release(event.slice);
        if (timed_calls) release_us.push_back(SecondsBetween(start, Clock::now()) * 1e6);
      }
      if (!released.ok()) {
        report.Fail("call " + std::to_string(op) + ": Release of live slice " +
                        std::to_string(event.slice) + " failed: " + released.error().message,
                    1);
      } else {
        ledger_busy -= ledger[event.slice];
        ledger.erase(event.slice);
      }
    }
    if (scheduler.BusyCubes() != ledger_busy) {
      report.Fail("call " + std::to_string(op) + ": BusyCubes " +
                      std::to_string(scheduler.BusyCubes()) + ", ledger " +
                      std::to_string(ledger_busy),
                  1);
    }
    busy_sum += ledger_busy;
  };

  // Set-up ends with the pod at its steady occupancy: the warm-up calls are
  // checked like the rest but not timed.
  std::uint64_t op = 0;
  {
    ScopedSpan warmup_span(spans, "warmup");
    for (; op < kWarmupCalls; ++op) call(op);
  }
  TimedPhase& phase = *report.phase;
  while (phase.KeepGoing()) {
    phase.BeginRound();
    {
      ScopedSpan round_span(spans, "round");
      for (std::uint64_t n = 0; n < kRoundCalls; ++n, ++op) call(op);
    }
    phase.EndRound(kRoundCalls);
  }

  // End-state checks: every switch map, and every switch's own accounting.
  std::uint64_t reconfigurations = 0, connects = 0, disconnects = 0;
  for (int ocs = 0; ocs < pod.ocs_count(); ++ocs) {
    const auto& sw = pod.ocs(ocs);
    std::vector<std::map<int, int>> owned;
    for (const auto& [id, slice] : pod.slices()) {
      auto it = slice.connections.find(ocs);
      if (it != slice.connections.end()) owned.push_back(it->second);
    }
    std::string problem = CheckSwitchMap(sw.CurrentMapping(), owned);
    if (problem.empty()) {
      problem = CheckConnectionAccounting(sw.telemetry().connects, sw.telemetry().disconnects,
                                          sw.ConnectionCount());
    }
    if (!problem.empty()) {
      report.Fail("ocs " + std::to_string(ocs) + ": " + problem, report.attempted);
    }
    reconfigurations += sw.telemetry().reconfigurations;
    connects += sw.telemetry().connects;
    disconnects += sw.telemetry().disconnects;
  }
  if (pod.slices().size() != ledger.size()) {
    report.Fail(std::to_string(pod.slices().size()) + " installed slices, ledger " +
                    std::to_string(ledger.size()),
                report.attempted);
  }

  // Per-call figures cover every call, warm-up included.
  const double ops = static_cast<double>(std::max<std::uint64_t>(op, 1));
  report.layer["core.allocate_us_p50"] = Quantile(allocate_us, 0.5);
  report.layer["core.allocate_us_p99"] = Quantile(allocate_us, 0.99);
  report.layer["core.release_us_p50"] = Quantile(release_us, 0.5);
  report.layer["core.release_us_p99"] = Quantile(release_us, 0.99);
  report.layer["core.accept_share"] =
      allocates == 0 ? 0.0 : static_cast<double>(accepted) / static_cast<double>(allocates);
  report.layer["core.busy_cubes_mean"] = busy_sum / ops;
  report.layer["ocs.reconfigure_calls_per_op"] = static_cast<double>(reconfigurations) / ops;
  report.layer["ocs.connects_per_op"] = static_cast<double>(connects) / ops;
  report.layer["ocs.disconnects_per_op"] = static_cast<double>(disconnects) / ops;
  report.layer["tpu.modelled_switch_ms_per_op"] = pod.TotalReconfigMs() / ops;
  report.layer["proc.voluntary_ctx_switches_per_op"] = phase.VoluntarySwitchesPerOp();
}

}  // namespace perfbench
