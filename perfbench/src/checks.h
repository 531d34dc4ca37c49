// The benchmark's correctness checks as pure functions over plain data, so
// the workloads and the self-test (which feeds each one a deliberately
// corrupted input) run exactly the same code. Each returns an empty string
// when the property holds and a description of the first violation
// otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "svc/command.h"

namespace perfbench {

/// Exactly-once: every tenant's committed frontier minus 1 equals the
/// number of commands the benchmark offered to it (and no other tenant has
/// a frontier).
std::string CheckFrontiers(const std::map<std::uint32_t, std::uint64_t>& offered,
                           const std::map<std::uint32_t, std::uint64_t>& next_command_id);

/// One OCS: the current north->south map is one-to-one and equals the union
/// of the connections the installed slices own on that switch.
std::string CheckSwitchMap(const std::map<int, int>& current,
                           const std::vector<std::map<int, int>>& slice_connections);

/// Reconfigurable policy: an Allocate succeeds iff the ledger shows at
/// least `want` free healthy cubes.
std::string CheckAllocateOutcome(bool succeeded, int ledger_free, int want);

/// The side run's mean FCT against the M/M/1 processor-sharing value.
struct PsCheckInput {
  double expected_ms = 0.0;
  /// Per-replication mean FCTs of independent side runs.
  std::vector<double> replication_means_ms;
};
/// Mean of the replications, its standard error, and the tolerance
/// (kPsZ standard errors, Student-t sized for the replication count).
struct PsCheckResult {
  double mean_ms = 0.0;
  double stderr_ms = 0.0;
  double tolerance_ms = 0.0;
  std::string problem;
};
PsCheckResult CheckProcessorSharingMean(const PsCheckInput& input);
/// E[S] / (C (1 - rho)) in milliseconds for exponential sizes of mean
/// `mean_flow_mb` megabytes over a `capacity_gbps` bottleneck.
double ProcessorSharingMeanFctMs(double mean_flow_mb, double capacity_gbps, double rho);

/// A mesh's trunk matrix (row-major, n x n, Gb/s) is symmetric and no
/// block's trunks sum past its uplink budget.
std::string CheckTrunks(const std::vector<double>& trunks, int blocks, double uplink_gbps);

/// A switch's own accounting: connects minus disconnects is its current
/// connection count.
std::string CheckConnectionAccounting(std::uint64_t connects, std::uint64_t disconnects,
                                      int connection_count);

/// The fleet state a shard's SerializeState() bytes carry that the checks
/// read: per-tenant committed frontiers and the live job table.
struct ServiceState {
  std::map<std::uint32_t, std::uint64_t> next_command_id;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> live_jobs;
};
bool ParseServiceState(const std::vector<std::uint8_t>& bytes, ServiceState* out);

/// The benchmark's own model of one shard, rebuilt from its journal: the
/// reconfigurable policy's rules over a pod of `cubes` healthy cubes.
/// Admit and make-before-break resize succeed iff enough cubes are free,
/// release succeeds iff the job is live, and an admit of a live job is
/// rejected.
class ShardModel {
 public:
  explicit ShardModel(int cubes) : free_(cubes), cubes_(cubes) {}
  void Apply(const lightwave::svc::SliceCommand& cmd);
  int busy_cubes() const { return cubes_ - free_; }
  const std::map<std::pair<std::uint32_t, std::uint64_t>, int>& live() const {
    return live_;
  }

 private:
  int free_;
  int cubes_;
  /// (tenant, job) -> cubes held.
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> live_;
};

/// The model against the program: the same live (tenant, job) set and the
/// same busy-cube count.
std::string CheckShardModel(const ShardModel& model, const ServiceState& state,
                            int busy_cubes);

}  // namespace perfbench
