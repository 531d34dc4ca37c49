// dcn_flows: the spine-free DCN's flow-level simulation (sim::SimulateFlows,
// the max-min water-fill) on a uniform mesh and on the mesh
// core::TopologyEngineer builds for the same disjoint-hotspot demand
// bench/dcn_spinefree uses. A side run on a single processor-sharing
// bottleneck checks the solver against the M/M/1-PS mean.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "core/topology_engineer.h"
#include "harness.h"
#include "sim/dcn_flow.h"
#include "sim/traffic.h"

namespace perfbench {

namespace lw = lightwave;

namespace {

constexpr int kBlocks = 16;
constexpr std::uint64_t kDemandSeed = 2023;
constexpr double kUplinkGbps = 1000.0;
constexpr int kEngineerOcs = 32;
constexpr double kLoad = 0.55;
/// Simulated seconds per topology per round.
constexpr double kRoundSimSeconds = 0.1;

// The processor-sharing side run: 2-block Clos, demand 0 -> 1 only, so the
// block-0 uplink is the one bottleneck at rho = 2 * load.
constexpr double kSideLoad = 0.25;
constexpr int kSideReplications = 32;
constexpr double kSideSimSeconds = 2.0;

std::vector<double> TrunkMatrix(const lw::sim::DcnTopology& topo) {
  const int n = topo.blocks();
  std::vector<double> trunks(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0.0);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b) trunks[static_cast<std::size_t>(a * n + b)] = topo.TrunkCapacity(a, b);
    }
  }
  return trunks;
}

}  // namespace

void RunDcnFlows(const Options& options, SpanRecorder& spans, Report& report) {
  // bench/dcn_spinefree's demand matrix; the seed drives the flow arrivals.
  lw::common::Rng rng(kDemandSeed);
  const auto demand =
      lw::sim::DisjointHotspotTraffic(kBlocks, kBlocks * 400.0, 6, 0.5, rng);
  const auto uniform = lw::sim::DcnTopology::UniformMesh(kBlocks, kUplinkGbps);
  lw::core::TopologyEngineer engineer(kBlocks, kEngineerOcs, kUplinkGbps / kEngineerOcs);
  double engineering_s = 0.0;
  {
    ScopedSpan span(spans, "core.TopologyEngineer::Engineer");
    const auto start = Clock::now();
    engineer.Engineer(demand);
    engineering_s = SecondsBetween(start, Clock::now());
  }
  const lw::sim::DcnTopology engineered = engineer.CurrentTopology();

  lw::sim::FlowSimConfig config;
  config.load = kLoad;
  config.sim_seconds = kRoundSimSeconds;
  config.seed = options.seed * 2654435761u + 1u;

  double simulate_s = 0.0;
  lw::sim::FlowSimResult uniform_result, engineered_result;
  // One round: both meshes, same inputs every round. Returns flows completed.
  const auto run_round = [&](std::uint64_t round) {
    std::uint64_t completed = 0;
    for (const lw::sim::DcnTopology* topo : {&uniform, &engineered}) {
      lw::sim::FlowSimResult result;
      {
        ScopedSpan span(spans, "sim::SimulateFlows", round);
        const auto start = Clock::now();
        result = lw::sim::SimulateFlows(*topo, demand, config);
        simulate_s += SecondsBetween(start, Clock::now());
      }
      if (result.completed == 0) {
        report.Fail(std::string(topo == &uniform ? "uniform" : "engineered") +
                        " mesh completed no flows",
                    1);
      }
      completed += result.completed;
      (topo == &uniform ? uniform_result : engineered_result) = result;
    }
    report.attempted += completed;
    return completed;
  };

  // Set-up ends with one untimed warm-up round.
  {
    ScopedSpan warmup_span(spans, "warmup");
    run_round(0);
  }
  simulate_s = 0.0;
  TimedPhase& phase = *report.phase;
  std::uint64_t round = 1;
  while (phase.KeepGoing()) {
    phase.BeginRound();
    std::uint64_t completed = 0;
    {
      ScopedSpan round_span(spans, "round", round);
      completed = run_round(round);
    }
    phase.EndRound(completed);
    ++round;
  }
  report.attempted = std::max<std::uint64_t>(report.attempted, 1);

  // Both meshes: symmetric, and no block over its uplink budget.
  for (const auto& [name, topo] :
       {std::pair<const char*, const lw::sim::DcnTopology*>{"uniform", &uniform},
        {"engineered", &engineered}}) {
    if (const std::string problem = CheckTrunks(TrunkMatrix(*topo), kBlocks, kUplinkGbps);
        !problem.empty()) {
      report.Fail(std::string(name) + " mesh: " + problem, report.attempted);
    }
  }

  // The side run: independent replications give the tolerance.
  lw::sim::TrafficMatrix one_way(2);
  one_way.set(0, 1, 1.0);
  const auto clos = lw::sim::DcnTopology::SpineClos(2, kUplinkGbps);
  lw::sim::FlowSimConfig side;
  side.load = kSideLoad;
  side.sim_seconds = kSideSimSeconds;
  PsCheckInput ps;
  ps.expected_ms =
      ProcessorSharingMeanFctMs(side.mean_flow_mb, kUplinkGbps, 2.0 * kSideLoad);
  for (int r = 0; r < kSideReplications; ++r) {
    side.seed = options.seed * 1000u + 500u + static_cast<std::uint64_t>(r);
    ps.replication_means_ms.push_back(lw::sim::SimulateFlows(clos, one_way, side).mean_fct_ms);
  }
  const PsCheckResult ps_result = CheckProcessorSharingMean(ps);
  if (!ps_result.problem.empty()) {
    report.Fail("M/M/1-PS side run: " + ps_result.problem, report.attempted);
  }
  std::fprintf(stderr,
               "perfbench: M/M/1-PS side run mean %.5f ms (expected %.5f, stderr %.5f, "
               "tolerance %.5f)\n",
               ps_result.mean_ms, ps.expected_ms, ps_result.stderr_ms, ps_result.tolerance_ms);

  const double flows = static_cast<double>(std::max<std::uint64_t>(phase.ops(), 1));
  report.layer["sim.simulate_flows_s"] = simulate_s;
  report.layer["sim.host_us_per_flow"] = simulate_s * 1e6 / flows;
  report.layer["sim.flows_completed"] =
      static_cast<double>(uniform_result.completed + engineered_result.completed);
  report.layer["sim.mean_fct_ms.uniform"] = uniform_result.mean_fct_ms;
  report.layer["sim.mean_fct_ms.engineered"] = engineered_result.mean_fct_ms;
  report.layer["sim.p99_fct_ms.engineered"] = engineered_result.p99_fct_ms;
  report.layer["core.topology_engineering_s"] = engineering_s;
  report.layer["proc.voluntary_ctx_switches_per_op"] = phase.VoluntarySwitchesPerOp();
}

}  // namespace perfbench
