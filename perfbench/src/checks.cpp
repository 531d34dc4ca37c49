#include "checks.h"

#include <cmath>
#include <cstdio>

#include "ctrl/wire.h"

namespace perfbench {

namespace {

/// Standard errors the side run's mean may stray from the M/M/1-PS value.
/// With 32 replications (31 degrees of freedom) a correct simulator exceeds
/// 5 standard errors with probability about 2e-5 per run.
constexpr double kPsZ = 5.0;

std::string Format(const char* fmt, double a, double b, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

std::string CheckFrontiers(const std::map<std::uint32_t, std::uint64_t>& offered,
                           const std::map<std::uint32_t, std::uint64_t>& next_command_id) {
  for (const auto& [tenant, count] : offered) {
    auto it = next_command_id.find(tenant);
    const std::uint64_t next = it == next_command_id.end() ? 1 : it->second;
    if (next - 1 != count) {
      return "tenant " + std::to_string(tenant) + ": committed frontier " +
             std::to_string(next) + " after " + std::to_string(count) + " offered commands";
    }
  }
  for (const auto& [tenant, next] : next_command_id) {
    if (next > 1 && !offered.contains(tenant)) {
      return "tenant " + std::to_string(tenant) + " has frontier " + std::to_string(next) +
             " but was offered nothing";
    }
  }
  return "";
}

std::string CheckSwitchMap(const std::map<int, int>& current,
                           const std::vector<std::map<int, int>>& slice_connections) {
  std::set<int> souths;
  for (const auto& [north, south] : current) {
    if (!souths.insert(south).second) {
      return "south port " + std::to_string(south) + " reached from two north ports";
    }
  }
  std::map<int, int> expected;
  for (const auto& connections : slice_connections) {
    for (const auto& [north, south] : connections) {
      if (!expected.emplace(north, south).second) {
        return "north port " + std::to_string(north) + " owned by two slices";
      }
    }
  }
  if (expected != current) {
    return "switch holds " + std::to_string(current.size()) +
           " connections, installed slices own " + std::to_string(expected.size()) +
           (expected.size() == current.size() ? " (different pairs)" : "");
  }
  return "";
}

std::string CheckAllocateOutcome(bool succeeded, int ledger_free, int want) {
  if (succeeded == (ledger_free >= want)) return "";
  return std::string("Allocate of ") + std::to_string(want) + " cubes " +
         (succeeded ? "succeeded" : "failed") + " with " + std::to_string(ledger_free) +
         " free cubes in the ledger";
}

double ProcessorSharingMeanFctMs(double mean_flow_mb, double capacity_gbps, double rho) {
  const double service_s = mean_flow_mb * 8e6 / (capacity_gbps * 1e9);
  return service_s / (1.0 - rho) * 1e3;
}

PsCheckResult CheckProcessorSharingMean(const PsCheckInput& input) {
  PsCheckResult result;
  const auto& means = input.replication_means_ms;
  const double n = static_cast<double>(means.size());
  if (means.size() < 2) {
    result.problem = "fewer than two side-run replications";
    return result;
  }
  double sum = 0.0;
  for (double m : means) sum += m;
  result.mean_ms = sum / n;
  double squares = 0.0;
  for (double m : means) squares += (m - result.mean_ms) * (m - result.mean_ms);
  result.stderr_ms = std::sqrt(squares / (n - 1.0) / n);
  result.tolerance_ms = kPsZ * result.stderr_ms;
  if (!std::isfinite(result.mean_ms) ||
      std::abs(result.mean_ms - input.expected_ms) > result.tolerance_ms) {
    result.problem = Format("mean FCT %.4f ms vs M/M/1-PS %.4f ms, tolerance %.4f ms",
                            result.mean_ms, input.expected_ms, result.tolerance_ms);
  }
  return result;
}

std::string CheckTrunks(const std::vector<double>& trunks, int blocks, double uplink_gbps) {
  const auto at = [&](int a, int b) {
    return trunks[static_cast<std::size_t>(a) * static_cast<std::size_t>(blocks) +
                  static_cast<std::size_t>(b)];
  };
  for (int a = 0; a < blocks; ++a) {
    double row = 0.0;
    for (int b = 0; b < blocks; ++b) {
      if (a == b) continue;
      if (at(a, b) != at(b, a)) {
        return Format("trunk %.0f-%.0f is asymmetric", a, b);
      }
      row += at(a, b);
    }
    // Relative slack for the summation's rounding only.
    if (row > uplink_gbps * (1.0 + 1e-9)) {
      return Format("block %.0f trunks sum to %.6f Gb/s over its %.6f Gb/s uplink", a, row,
                    uplink_gbps);
    }
  }
  return "";
}

std::string CheckConnectionAccounting(std::uint64_t connects, std::uint64_t disconnects,
                                      int connection_count) {
  if (connects - disconnects == static_cast<std::uint64_t>(connection_count)) return "";
  return "connects " + std::to_string(connects) + " - disconnects " +
         std::to_string(disconnects) + " != " + std::to_string(connection_count) +
         " current connections";
}

bool ParseServiceState(const std::vector<std::uint8_t>& bytes, ServiceState* out) {
  lightwave::ctrl::WireReader reader(bytes);
  auto tenants = reader.GetVarint();
  if (!tenants) return false;
  for (std::uint64_t i = 0; i < *tenants; ++i) {
    auto tenant = reader.GetVarint();
    auto next = reader.GetU64();
    if (!tenant || !next) return false;
    out->next_command_id[static_cast<std::uint32_t>(*tenant)] = *next;
  }
  auto jobs = reader.GetVarint();
  if (!jobs) return false;
  for (std::uint64_t i = 0; i < *jobs; ++i) {
    auto tenant = reader.GetVarint();
    auto job = reader.GetVarint();
    auto slice = reader.GetU64();
    if (!tenant || !job || !slice) return false;
    out->live_jobs[{static_cast<std::uint32_t>(*tenant), *job}] = *slice;
  }
  return true;
}

void ShardModel::Apply(const lightwave::svc::SliceCommand& cmd) {
  using lightwave::svc::CommandKind;
  const std::pair<std::uint32_t, std::uint64_t> key{cmd.tenant_id, cmd.job_id};
  const int want = cmd.shape.CubeCount();
  auto it = live_.find(key);
  switch (cmd.kind) {
    case CommandKind::kAdmit:
      if (it == live_.end() && free_ >= want) {
        live_.emplace(key, want);
        free_ -= want;
      }
      return;
    case CommandKind::kResize:
      // Make-before-break: the new shape must fit beside the old one.
      if (it != live_.end() && free_ >= want) {
        free_ += it->second - want;
        it->second = want;
      }
      return;
    case CommandKind::kRelease:
      if (it != live_.end()) {
        free_ += it->second;
        live_.erase(it);
      }
      return;
    default:
      // The workloads journal no cross-shard transaction verbs.
      return;
  }
}

std::string CheckShardModel(const ShardModel& model, const ServiceState& state,
                            int busy_cubes) {
  if (model.busy_cubes() != busy_cubes) {
    return "busy cubes " + std::to_string(busy_cubes) + ", model " +
           std::to_string(model.busy_cubes());
  }
  if (model.live().size() != state.live_jobs.size()) {
    return std::to_string(state.live_jobs.size()) + " live jobs, model " +
           std::to_string(model.live().size());
  }
  for (const auto& [key, cubes] : model.live()) {
    if (!state.live_jobs.contains(key)) {
      return "tenant " + std::to_string(key.first) + " job " + std::to_string(key.second) +
             " live in the model only";
    }
  }
  return "";
}

}  // namespace perfbench
