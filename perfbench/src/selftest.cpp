// --self-test: each correctness check runs twice, on an input taken from
// the program (which must pass) and on a deliberately corrupted copy (on
// which the check must fire). A check that passes its corrupted input is
// vacuous, and the self-test fails.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "core/scheduler.h"
#include "core/topology_engineer.h"
#include "harness.h"
#include "sim/dcn_flow.h"
#include "sim/traffic.h"
#include "tpu/superpod.h"

namespace perfbench {

namespace lw = lightwave;

namespace {

struct Case {
  const char* name;
  std::function<std::string()> clean;
  std::function<std::string()> corrupted;
};

}  // namespace

int RunSelfTest(std::uint64_t* checks_run) {
  // Program-made inputs shared by several cases.
  lw::tpu::Superpod pod(11, 16, 2);
  lw::core::SliceScheduler scheduler(pod, lw::core::AllocationPolicy::kReconfigurable);
  for (int cubes : {4, 2, 8}) {
    lw::tpu::SliceShape shape{1, 1, cubes};
    if (cubes == 4) shape = {1, 2, 2};
    if (cubes == 8) shape = {2, 2, 2};
    (void)scheduler.Allocate(shape);
  }
  int busiest = 0;
  for (int ocs = 0; ocs < pod.ocs_count(); ++ocs) {
    if (pod.ocs(ocs).ConnectionCount() > pod.ocs(busiest).ConnectionCount()) busiest = ocs;
  }
  std::vector<std::map<int, int>> owned;
  for (const auto& [id, slice] : pod.slices()) {
    auto it = slice.connections.find(busiest);
    if (it != slice.connections.end()) owned.push_back(it->second);
  }

  lw::common::Rng rng(2023);
  const auto demand = lw::sim::DisjointHotspotTraffic(16, 16 * 400.0, 6, 0.5, rng);
  lw::core::TopologyEngineer engineer(16, 32, 1000.0 / 32);
  engineer.Engineer(demand);
  const auto engineered = engineer.CurrentTopology();
  std::vector<double> trunks(256, 0.0);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      if (a != b) trunks[static_cast<std::size_t>(a * 16 + b)] = engineered.TrunkCapacity(a, b);
    }
  }

  PsCheckInput ps;
  {
    lw::sim::TrafficMatrix one_way(2);
    one_way.set(0, 1, 1.0);
    const auto clos = lw::sim::DcnTopology::SpineClos(2, 1000.0);
    lw::sim::FlowSimConfig side;
    side.load = 0.25;
    side.sim_seconds = 2.0;
    ps.expected_ms = ProcessorSharingMeanFctMs(side.mean_flow_mb, 1000.0, 0.5);
    for (int r = 0; r < 32; ++r) {
      side.seed = 900u + static_cast<std::uint64_t>(r);
      ps.replication_means_ms.push_back(lw::sim::SimulateFlows(clos, one_way, side).mean_fct_ms);
    }
  }

  // A small journal-shaped command sequence for the shard model.
  std::vector<lw::svc::SliceCommand> log;
  const auto command = [](std::uint32_t tenant, lw::svc::CommandKind kind, std::uint64_t job,
                          int cubes) {
    lw::svc::SliceCommand cmd;
    cmd.tenant_id = tenant;
    cmd.kind = kind;
    cmd.job_id = job;
    cmd.shape = lw::tpu::SliceShape{1, 1, cubes};
    return cmd;
  };
  log.push_back(command(0, lw::svc::CommandKind::kAdmit, 1, 4));
  log.push_back(command(1, lw::svc::CommandKind::kAdmit, 1, 8));
  log.push_back(command(1, lw::svc::CommandKind::kAdmit, 2, 8));   // 4 free: rejected
  log.push_back(command(0, lw::svc::CommandKind::kResize, 1, 2));  // fits beside the old
  log.push_back(command(1, lw::svc::CommandKind::kAdmit, 3, 2));
  log.push_back(command(0, lw::svc::CommandKind::kRelease, 7, 1));  // not live: rejected
  ShardModel model(16);
  for (const auto& cmd : log) model.Apply(cmd);
  ServiceState truth;
  truth.live_jobs[{0, 1}] = 1;
  truth.live_jobs[{1, 1}] = 2;
  truth.live_jobs[{1, 3}] = 3;

  const int want = 6;
  const int ledger_free = pod.cube_count() - scheduler.BusyCubes();
  const bool fits = scheduler.Allocate(lw::tpu::SliceShape{1, 2, 3}).ok();

  const std::vector<Case> cases = {
      {"exactly-once frontier",
       [] { return CheckFrontiers({{0, 10}, {1, 5}}, {{0, 11}, {1, 6}}); },
       [] { return CheckFrontiers({{0, 10}, {1, 5}}, {{0, 11}, {1, 5}}); }},
      {"switch map one-to-one",
       [&] { return CheckSwitchMap(pod.ocs(busiest).CurrentMapping(), owned); },
       [&] {
         std::map<int, int> copy = pod.ocs(busiest).CurrentMapping();
         const int first_south = copy.begin()->second;
         std::next(copy.begin())->second = first_south;  // duplicated south port
         return CheckSwitchMap(copy, owned);
       }},
      {"allocate against ledger",
       [&] { return CheckAllocateOutcome(fits, ledger_free, want); },
       [&] { return CheckAllocateOutcome(!fits, ledger_free, want); }},
      {"M/M/1-PS mean FCT", [&] { return CheckProcessorSharingMean(ps).problem; },
       [&] {
         PsCheckInput shifted = ps;
         for (double& m : shifted.replication_means_ms) m *= 1.2;
         return CheckProcessorSharingMean(shifted).problem;
       }},
      {"trunk budget", [&] { return CheckTrunks(trunks, 16, 1000.0); },
       [&] {
         std::vector<double> over = trunks;
         over[1] += 1000.0 / 32;  // one more trunk on the row of block 0
         over[16] += 1000.0 / 32;
         return CheckTrunks(over, 16, 1000.0);
       }},
      {"switch accounting",
       [&] {
         const auto& t = pod.ocs(busiest).telemetry();
         return CheckConnectionAccounting(t.connects, t.disconnects,
                                          pod.ocs(busiest).ConnectionCount());
       },
       [&] {
         const auto& t = pod.ocs(busiest).telemetry();
         return CheckConnectionAccounting(t.connects + 1, t.disconnects,
                                          pod.ocs(busiest).ConnectionCount());
       }},
      {"shard model", [&] { return CheckShardModel(model, truth, 12); },
       [&] {
         ServiceState lost = truth;
         lost.live_jobs.erase({1, 3});
         lost.live_jobs[{1, 2}] = 3;  // the rejected admit, as if it had succeeded
         return CheckShardModel(model, lost, 12);
       }},
  };

  int silent = 0;
  for (const Case& c : cases) {
    const std::string clean = c.clean();
    const std::string corrupted = c.corrupted();
    const bool ok = clean.empty() && !corrupted.empty();
    if (!ok) ++silent;
    std::printf("self-test %-26s clean: %s | corrupted: %s\n", c.name,
                clean.empty() ? "passes" : ("FIRES (" + clean + ")").c_str(),
                corrupted.empty() ? "PASSES (vacuous check)"
                                  : ("fires (" + corrupted + ")").c_str());
  }
  *checks_run = cases.size();
  return silent;
}

}  // namespace perfbench
