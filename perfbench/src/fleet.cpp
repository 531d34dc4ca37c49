// fleet_serve and fleet_recover: the durable serving path, measured from
// outside through fleet::Router, fleet::Shard, svc::FleetService and
// journal::FileStorage's public calls and counters.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/result.h"
#include "fleet/router.h"
#include "fleet/shard.h"
#include "harness.h"
#include "journal/file_storage.h"
#include "journal/wal.h"
#include "svc/request_stream.h"
#include "telemetry/hub.h"
#include "tpu/superpod.h"

namespace perfbench {

namespace lw = lightwave;

namespace {

constexpr int kPodCubes = 16;
constexpr int kOcsPerDim = 2;
constexpr std::uint32_t kTenants = 16;
constexpr double kZipf = 0.5;

// fleet_serve: one pipelined shard, so the generator, the journal thread and
// the apply thread fit the 4-vCPU host this benchmark is tuned on (two
// shards ran five threads on four vCPUs and spread twice as wide); the
// stream cycles through a 2^20-command window, shifting each lap's command
// and job ids past the previous lap.
constexpr int kServeShards = 1;
constexpr std::uint64_t kServeWindow = 1u << 20;
constexpr std::uint64_t kServeRoundCommands = 100000;
constexpr std::uint64_t kServeSnapshotInterval = 4096;
/// The generator's nap when a tenant queue refuses an offer (backpressure):
/// it waits instead of spinning, so its CPU stays out of cpu_us_per_op.
constexpr auto kRefusalNap = std::chrono::microseconds(50);

// fleet_recover: four shards served in sync mode with snapshots off, so
// every journaled record stays in the log and every recovery replays it.
constexpr int kRecoverShards = 4;
constexpr std::uint64_t kRecoverCommands = 200000;
constexpr std::size_t kRecoverBatch = 256;

lw::svc::RequestStreamConfig StreamConfig() {
  lw::svc::RequestStreamConfig config;
  config.tenant_count = kTenants;
  config.zipf_skew = kZipf;
  return config;
}

std::uint64_t PodSeed(std::uint64_t seed, int shard) {
  return seed * 1000003u + 17u + static_cast<std::uint64_t>(shard);
}

/// A per-process journal directory under the benchmark's scratch area,
/// removed on destruction.
struct JournalDir {
  std::string path;
  explicit JournalDir(const std::string& base, const std::string& workload) {
    path = base + "/" + workload + "-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
  }
  ~JournalDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  JournalDir(const JournalDir&) = delete;
  JournalDir& operator=(const JournalDir&) = delete;
  std::string File(int shard, const char* kind) const {
    return path + "/shard" + std::to_string(shard) + "." + kind;
  }
};

/// File-backed shards over a journal directory: opening the same files again
/// under fresh pods and shards is how the benchmark recovers a fleet. Members
/// are declared so that each is destroyed before what it references.
struct FileFleet {
  std::vector<std::unique_ptr<lw::journal::FileStorage>> wals;
  std::vector<std::unique_ptr<lw::journal::FileStorage>> snapshots;
  std::vector<std::unique_ptr<lw::tpu::Superpod>> pods;
  std::vector<std::unique_ptr<lw::fleet::Shard>> shards;
  lw::fleet::Router router;
  std::string error;

  FileFleet(const JournalDir& dir, int count, std::uint64_t seed,
            const lw::fleet::ShardOptions& options) {
    for (int s = 0; s < count; ++s) {
      auto wal = lw::journal::FileStorage::Open(dir.File(s, "wal"));
      auto snapshot = lw::journal::FileStorage::Open(dir.File(s, "snap"));
      if (!wal.ok() || !snapshot.ok()) {
        error = "cannot open journal files in " + dir.path;
        return;
      }
      wals.push_back(std::move(wal.value()));
      snapshots.push_back(std::move(snapshot.value()));
      pods.push_back(std::make_unique<lw::tpu::Superpod>(PodSeed(seed, s), kPodCubes,
                                                         kOcsPerDim));
      shards.push_back(std::make_unique<lw::fleet::Shard>(
          static_cast<std::uint32_t>(s), *pods.back(),
          lw::core::AllocationPolicy::kReconfigurable, *wals.back(), *snapshots.back(),
          options));
      router.AddShard(shards.back().get());
    }
  }

  /// Recovers the shards one Shard::Recover at a time. Router::RecoverAll
  /// fans the same calls out over common::parallel, and a process that ever
  /// ran a parallel region corrupts its heap at exit (ROADMAP item 1), which
  /// aborts the benchmark after its result.
  lw::common::Result<lw::journal::RecoveryStats> RecoverEach() {
    lw::journal::RecoveryStats total;
    for (auto& shard : shards) {
      auto recovered = shard->Recover();
      if (!recovered.ok()) return recovered.error();
      total.records_scanned += recovered.value().records_scanned;
      total.records_replayed += recovered.value().records_replayed;
    }
    return total;
  }
};

/// Every OCS of `pod` passes the one-to-one and union check.
std::string CheckPodSwitches(const lw::tpu::Superpod& pod) {
  for (int ocs = 0; ocs < pod.ocs_count(); ++ocs) {
    std::vector<std::map<int, int>> owned;
    for (const auto& [id, slice] : pod.slices()) {
      auto it = slice.connections.find(ocs);
      if (it != slice.connections.end()) owned.push_back(it->second);
    }
    const std::string problem = CheckSwitchMap(pod.ocs(ocs).CurrentMapping(), owned);
    if (!problem.empty()) return "ocs " + std::to_string(ocs) + ": " + problem;
  }
  return "";
}

}  // namespace

// --- fleet_serve ---------------------------------------------------------------

void RunFleetServe(const Options& options, SpanRecorder& spans, Report& report) {
  const JournalDir dir(options.scratch_dir, "fleet_serve");
  lw::fleet::ShardOptions shard_options;
  shard_options.service.snapshot_interval = kServeSnapshotInterval;
  // Quota never binds: the generator meets only per-tenant backpressure.
  shard_options.admission.default_quota = lw::fleet::TenantQuota{1e18, 1e18, 1.0};

  FileFleet fleet(dir, kServeShards, options.seed, shard_options);
  if (!fleet.error.empty()) {
    report.Fail(fleet.error, 1);
    return;
  }
  if (auto recovered = fleet.RecoverEach(); !recovered.ok()) {
    report.Fail("fresh fleet failed to recover: " + recovered.error().message, 1);
    return;
  }
  lw::telemetry::Hub hub;
  if (spans.enabled()) {
    for (auto& shard : fleet.shards) shard->AttachTelemetry(&hub);
  }
  const lw::svc::RequestStream stream(options.seed, kServeWindow, StreamConfig());
  std::vector<std::uint64_t> lap_offset(kTenants, 0);
  std::map<std::uint32_t, std::uint64_t> offered;
  std::uint64_t next_index = 0;
  std::uint64_t refusals = 0;
  double submit_s = 0.0;

  // Threads the pipeline starts, per shard: the journal thread is created
  // first, so it holds the lower of the two new thread ids.
  std::vector<pid_t> journal_tids, apply_tids;
  for (auto& shard : fleet.shards) {
    const auto before = ThreadIds();
    shard->Start();
    std::vector<pid_t> fresh;
    for (pid_t tid : ThreadIds()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) fresh.push_back(tid);
    }
    if (fresh.size() == 2) {
      journal_tids.push_back(fresh[0]);
      apply_tids.push_back(fresh[1]);
    }
  }

  // Offers `count` commands and returns once all of them are applied.
  const auto serve = [&](std::uint64_t count) {
    for (std::uint64_t n = 0; n < count; ++n, ++next_index) {
      if (next_index > 0 && next_index % kServeWindow == 0) {
        for (std::uint32_t t = 0; t < kTenants; ++t) {
          lap_offset[t] += stream.TenantCommandCount(t);
        }
      }
      lw::svc::SliceCommand cmd = stream.Command(next_index % kServeWindow);
      cmd.command_id += lap_offset[cmd.tenant_id];
      cmd.job_id += lap_offset[cmd.tenant_id];
      while (true) {
        lw::common::Status submitted;
        if (spans.enabled()) {
          ScopedSpan span(spans, "fleet.Router::Submit", next_index);
          const auto start = Clock::now();
          submitted = fleet.router.Submit(cmd);
          submit_s += SecondsBetween(start, Clock::now());
        } else {
          submitted = fleet.router.Submit(cmd);
        }
        if (submitted.ok()) break;
        if (submitted.error().code != lw::common::Error::Code::kResourceExhausted) {
          report.Fail("Router::Submit refused a command: " + submitted.error().message, 1);
          break;
        }
        ++refusals;
        std::this_thread::sleep_for(kRefusalNap);
      }
      ++offered[cmd.tenant_id];
    }
    report.attempted += count;
    // Counted once applied: Drain returns when both stages are idle.
    ScopedSpan drain_span(spans, "fleet.Shard::Drain");
    for (auto& shard : fleet.shards) shard->Drain();
  };

  // Set-up ends with one untimed warm-up round (journal files grown, first
  // snapshots taken).
  {
    ScopedSpan warmup_span(spans, "warmup");
    serve(kServeRoundCommands);
  }
  submit_s = 0.0;
  refusals = 0;
  const auto thread_cpu = [](const std::vector<pid_t>& tids) {
    double total = 0.0;
    for (pid_t tid : tids) total += ThreadCpuSeconds(tid);
    return total;
  };
  const double journal_cpu_before = thread_cpu(journal_tids);
  const double apply_cpu_before = thread_cpu(apply_tids);
  TimedPhase& phase = *report.phase;
  while (phase.KeepGoing()) {
    phase.BeginRound();
    {
      ScopedSpan round_span(spans, "round");
      serve(kServeRoundCommands);
    }
    phase.EndRound(kServeRoundCommands);
  }
  const double journal_cpu = thread_cpu(journal_tids) - journal_cpu_before;
  const double apply_cpu = thread_cpu(apply_tids) - apply_cpu_before;
  for (auto& shard : fleet.shards) shard->Stop();

  // --- checks --------------------------------------------------------------
  std::map<std::uint32_t, std::uint64_t> frontiers;
  std::uint64_t applied = 0, records = 0, batch_appends = 0, bytes = 0, fsyncs = 0,
                compactions = 0, snapshots = 0, rejected = 0, processed = 0;
  for (std::size_t s = 0; s < fleet.shards.size(); ++s) {
    const lw::fleet::Shard& shard = *fleet.shards[s];
    const auto& service = shard.service();
    for (std::uint32_t tenant : service.tenants()) {
      frontiers[tenant] = service.next_command_id(tenant);
    }
    const lw::fleet::ShardStats stats = shard.stats();
    const auto& wal = service.wal();
    if (wal.appended_records() != stats.applied) {
      report.Fail("shard " + std::to_string(s) + " journaled " +
                      std::to_string(wal.appended_records()) + " records but applied " +
                      std::to_string(stats.applied),
                  report.attempted);
    }
    if (service.live_jobs() != fleet.pods[s]->slices().size()) {
      report.Fail("shard " + std::to_string(s) + ": " +
                      std::to_string(service.live_jobs()) + " live jobs but " +
                      std::to_string(fleet.pods[s]->slices().size()) + " installed slices",
                  report.attempted);
    }
    if (const std::string problem = CheckPodSwitches(*fleet.pods[s]); !problem.empty()) {
      report.Fail("shard " + std::to_string(s) + " " + problem, report.attempted);
    }
    applied += stats.applied;
    records += wal.appended_records();
    batch_appends += wal.batch_appends();
    bytes += wal.appended_bytes();
    compactions += wal.compactions();
    fsyncs += fleet.wals[s]->fsync_count();
    snapshots += service.stats().snapshots;
    rejected += service.stats().rejected_apply;
    processed += service.stats().processed;
  }
  if (const std::string problem = CheckFrontiers(offered, frontiers); !problem.empty()) {
    report.Fail("exactly-once: " + problem, report.attempted);
  }
  {
    // A successor fleet over the same files must reach the same state.
    FileFleet successor(dir, kServeShards, options.seed, shard_options);
    for (std::size_t s = 0; successor.error.empty() && s < successor.shards.size(); ++s) {
      auto recovered = successor.shards[s]->Recover();
      if (!recovered.ok() || successor.shards[s]->service().SerializeState() !=
                                 fleet.shards[s]->service().SerializeState()) {
        report.Fail("shard " + std::to_string(s) + " recovered from its files differs",
                    report.attempted);
      }
    }
    if (!successor.error.empty()) report.Fail(successor.error, report.attempted);
  }

  // Benchmark-side timings cover the timed phase; the program's counters
  // cover every command served, warm-up included.
  const double ops = static_cast<double>(std::max<std::uint64_t>(phase.ops(), 1));
  const double served = static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  report.layer["fleet.submit_ns_per_op"] = submit_s * 1e9 / ops;
  report.layer["fleet.offer_refusals_per_kop"] = static_cast<double>(refusals) * 1e3 / ops;
  report.layer["fleet.batch_commands_mean"] =
      batch_appends == 0 ? 0.0 : static_cast<double>(records) / static_cast<double>(batch_appends);
  report.layer["fleet.journal_thread_cpu_s"] = journal_cpu;
  report.layer["fleet.apply_thread_cpu_s"] = apply_cpu;
  report.layer["journal.fsyncs_per_kop"] = static_cast<double>(fsyncs) * 1e3 / served;
  report.layer["journal.bytes_per_op"] = static_cast<double>(bytes) / served;
  report.layer["journal.compactions"] = static_cast<double>(compactions);
  report.layer["svc.snapshots"] = static_cast<double>(snapshots);
  report.layer["svc.apply_reject_share"] =
      processed == 0 ? 0.0 : static_cast<double>(rejected) / static_cast<double>(processed);
  report.layer["proc.voluntary_ctx_switches_per_op"] = phase.VoluntarySwitchesPerOp();
  if (applied != report.attempted) {
    report.Fail("shards applied " + std::to_string(applied) + " of " +
                    std::to_string(report.attempted) + " offered commands",
                report.attempted);
  }
}

// --- fleet_recover -------------------------------------------------------------

void RunFleetRecover(const Options& options, SpanRecorder& spans, Report& report) {
  const JournalDir dir(options.scratch_dir, "fleet_recover");
  lw::fleet::ShardOptions shard_options;
  shard_options.batch_size = kRecoverBatch;
  shard_options.service.snapshot_interval = 0;
  shard_options.admission.default_quota = lw::fleet::TenantQuota{1e18, 1e18, 1.0};
  shard_options.admission.per_tenant_queue_capacity = kRecoverCommands;

  // Set-up: serve the stream once, leaving the journal files behind.
  std::vector<std::vector<std::uint8_t>> setup_state;
  std::vector<int> setup_busy;
  std::uint64_t journaled = 0;
  {
    FileFleet fleet(dir, kRecoverShards, options.seed, shard_options);
    if (!fleet.error.empty() || !fleet.RecoverEach().ok()) {
      report.Fail("set-up fleet failed to start", 1);
      return;
    }
    const lw::svc::RequestStream stream(options.seed, kRecoverCommands, StreamConfig());
    for (std::uint64_t i = 0; i < kRecoverCommands; ++i) {
      if (auto submitted = fleet.router.Submit(stream.Command(i)); !submitted.ok()) {
        report.Fail("set-up submit refused: " + submitted.error().message, 1);
        return;
      }
      if (i % 1024 == 1023) fleet.router.PumpAll();
    }
    while (fleet.router.PumpAll() > 0) {
    }
    for (auto& shard : fleet.shards) {
      setup_state.push_back(shard->service().SerializeState());
      setup_busy.push_back(shard->service().scheduler().BusyCubes());
      journaled += shard->service().wal().appended_records();
    }
  }
  if (journaled != kRecoverCommands) {
    report.Fail("set-up journaled " + std::to_string(journaled) + " of " +
                    std::to_string(kRecoverCommands) + " submitted commands",
                1);
  }

  TimedPhase& phase = *report.phase;
  std::vector<double> recover_all_s, shard_max_ms, shard_sum_ms;
  std::uint64_t scanned = 0, replayed = 0;
  std::uint64_t round = 0;
  while (phase.KeepGoing()) {
    phase.BeginRound();
    std::uint64_t round_replayed = 0;
    {
      ScopedSpan round_span(spans, "round", round);
      lw::telemetry::Hub hub;
      std::unique_ptr<FileFleet> fleet;
      {
        ScopedSpan span(spans, "fleet.open_shards", round);
        fleet = std::make_unique<FileFleet>(dir, kRecoverShards, options.seed, shard_options);
      }
      if (!fleet->error.empty()) {
        report.Fail(fleet->error, 1);
        break;
      }
      if (spans.enabled()) {
        for (auto& shard : fleet->shards) shard->AttachTelemetry(&hub);
      }
      lw::common::Result<lw::journal::RecoveryStats> recovered =
          lw::journal::RecoveryStats{};
      {
        ScopedSpan span(spans, "fleet.Shard::Recover(all)", round);
        const auto start = Clock::now();
        recovered = fleet->RecoverEach();
        recover_all_s.push_back(SecondsBetween(start, Clock::now()));
      }
      if (recovered.ok()) {
        round_replayed = recovered.value().records_replayed;
        scanned = recovered.value().records_scanned;
        replayed = round_replayed;
      }
      // Per-round checks: the recovered fleet is the one set-up left.
      if (!recovered.ok() || round_replayed != journaled) {
        report.Fail("recovery replayed " + std::to_string(round_replayed) + " of " +
                        std::to_string(journaled) + " journaled records",
                    journaled);
      }
      for (std::size_t s = 0; s < fleet->shards.size(); ++s) {
        if (fleet->shards[s]->service().SerializeState() != setup_state[s]) {
          report.Fail("round " + std::to_string(round) + ": shard " + std::to_string(s) +
                          " recovered state differs from set-up",
                      round_replayed);
          break;
        }
      }
      if (spans.enabled()) {
        const auto samples =
            hub.metrics().GetHistogram("lightwave_journal_recovery_latency_ms").Snapshot();
        shard_max_ms.push_back(samples.max());
        double sum = 0.0;
        for (double ms : samples.samples()) sum += ms;
        shard_sum_ms.push_back(sum);
      }
    }
    phase.EndRound(round_replayed);
    ++round;
  }
  report.attempted = std::max<std::uint64_t>(phase.ops(), 1);

  // The benchmark's own model, rebuilt from each shard's log, against the
  // state set-up left (which every recovery above reproduced byte for byte).
  std::uint64_t logged = 0;
  for (int s = 0; s < kRecoverShards; ++s) {
    auto storage = lw::journal::FileStorage::Open(dir.File(s, "wal"));
    ServiceState state;
    if (!storage.ok() || !ParseServiceState(setup_state[static_cast<std::size_t>(s)], &state)) {
      report.Fail("shard " + std::to_string(s) + ": cannot read its log or state",
                  report.attempted);
      continue;
    }
    ShardModel model(kPodCubes);
    const lw::journal::WalScan scan = lw::journal::Wal::Scan(*storage.value());
    std::string problem;
    for (const auto& record : scan.records) {
      auto cmd = lw::svc::SliceCommand::Decode(record.payload);
      if (!cmd.ok()) {
        problem = "record " + std::to_string(record.seq) + " does not decode";
        break;
      }
      model.Apply(cmd.value());
    }
    logged += scan.records.size();
    if (problem.empty()) {
      problem = CheckShardModel(model, state, setup_busy[static_cast<std::size_t>(s)]);
    }
    if (!problem.empty()) {
      report.Fail("shard " + std::to_string(s) + " model: " + problem, report.attempted);
    }
  }
  if (logged != kRecoverCommands) {
    report.Fail("the logs hold " + std::to_string(logged) + " of " +
                    std::to_string(kRecoverCommands) + " submitted commands",
                report.attempted);
  }

  report.layer["fleet.recover_all_s"] = Quantile(recover_all_s, 0.5);
  report.layer["journal.shard_recovery_ms_max"] = Quantile(shard_max_ms, 0.5);
  report.layer["journal.shard_recovery_ms_sum"] = Quantile(shard_sum_ms, 0.5);
  report.layer["journal.records_scanned"] = static_cast<double>(scanned);
  report.layer["journal.records_replayed"] = static_cast<double>(replayed);
  report.layer["proc.voluntary_ctx_switches_per_op"] = phase.VoluntarySwitchesPerOp();
}

}  // namespace perfbench
