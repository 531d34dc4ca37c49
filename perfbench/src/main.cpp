// perfbench: the lightwave benchmark binary. One process runs one workload:
//
//   perfbench --workload <fleet_serve|fleet_recover|slice_churn|dcn_flows>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// It prints a provenance line, then as its last stdout line one JSON result:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A start that names no workload runs slice_churn. Check
// failures and notes go to stderr.
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/parallel.h"
#include "harness.h"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"fleet_serve", "fleet_recover", "slice_churn",
                                      "dcn_flows"};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs{};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

void PrintProvenance(const Options& options) {
  utsname uts{};
  uname(&uts);
  std::printf(
      "{\"provenance\": {\"build_type\": \"%s\", \"compiler\": \"%s\", \"cpu\": \"%s\", "
      "\"nproc\": %ld, \"kernel\": \"%s\", \"LIGHTWAVE_THREADS\": \"%s\", "
      "\"pool_threads\": %d, \"LIGHTWAVE_SIMD\": \"%s\", \"LIGHTWAVE_VALIDATE\": \"%s\", "
      "\"journal_dir\": \"%s\", \"journal_fs\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      PERFBENCH_BUILD_TYPE, JsonEscape(PERFBENCH_COMPILER).c_str(),
      JsonEscape(CpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      JsonEscape(uts.release).c_str(), JsonEscape(EnvOr("LIGHTWAVE_THREADS", "unset")).c_str(),
      lightwave::common::parallel::Threads(),
      JsonEscape(EnvOr("LIGHTWAVE_SIMD", "unset")).c_str(),
      JsonEscape(EnvOr("LIGHTWAVE_VALIDATE", "unset")).c_str(),
      JsonEscape(options.scratch_dir).c_str(),
      JsonEscape(FilesystemType(options.scratch_dir)).c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds, options.trace ? 1 : 0);
}

/// A metric value as JSON: finite, with all its digits.
std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

int PrintUsage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench [--workload NAME] [--seed N] [--seconds S] "
               "[--trace 0|1]\n       perfbench --self-test\nworkloads: fleet_serve "
               "fleet_recover slice_churn dcn_flows\n",
               why);
  return 2;
}

/// The directory holding this benchmark's sources (the executable lives in
/// its .build subdirectory).
std::string BenchDir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "perfbench";
  return exe.parent_path().parent_path().string();
}

}  // namespace

int main(int argc, char** argv) {
  g_process_start = Clock::now();

#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace") {
      const char* v = value();
      if (v == nullptr) return PrintUsage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
      } else {
        options.trace = std::strtol(v, &end, 10) != 0;
      }
      if (end != nullptr && *end != '\0') return PrintUsage(("bad value for " + arg).c_str());
    } else {
      return PrintUsage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) return PrintUsage(("unknown workload " + options.workload).c_str());
  if (!(options.seconds > 0.0)) return PrintUsage("--seconds must be positive");

  const std::string bench_dir = BenchDir();
  options.scratch_dir = bench_dir + "/.scratch";
  options.out_dir = bench_dir + "/.out";
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  std::filesystem::create_directories(options.out_dir, ec);

  if (self_test) {
    std::uint64_t checks = 0;
    const int silent = RunSelfTest(&checks);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %d, \"metrics\": {}}\n",
                silent == 0 ? "true" : "false", static_cast<unsigned long long>(checks),
                silent);
    std::fflush(stdout);
    return silent == 0 ? 0 : 1;
  }

  PrintProvenance(options);
  std::fflush(stdout);

  SpanRecorder spans;
  if (options.trace) spans.Enable();
  TimedPhase timed(options.seconds);
  Report report;
  report.phase = &timed;
  if (options.workload == "fleet_serve") {
    RunFleetServe(options, spans, report);
  } else if (options.workload == "fleet_recover") {
    RunFleetRecover(options, spans, report);
  } else if (options.workload == "slice_churn") {
    RunSliceChurn(options, spans, report);
  } else {
    RunDcnFlows(options, spans, report);
  }
  if (report.attempted == 0) report.attempted = 1;
  report.failed = std::min(report.failed, report.attempted);
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", problem.c_str());
  }

  // Every metric must be finite, and every end-to-end metric above zero.
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (options.trace) {
    for (const LayerMetricSpec& spec : LayerMetricSpecs()) {
      auto it = report.layer.find(spec.name);
      metrics.push_back({spec.name, {it == report.layer.end() ? 0.0 : it->second, spec.unit}});
    }
  } else {
    metrics.push_back({"ops_per_s", {timed.OpsPerSecond(), "ops/s"}});
    metrics.push_back({"cpu_us_per_op", {timed.CpuUsPerOp(), "us"}});
    metrics.push_back(
        {"setup_s",
         {timed.rounds() > 0 ? SecondsBetween(g_process_start, timed.first_start()) : 0.0, "s"}});
    metrics.push_back({"peak_rss_mib", {PeakRssMib(), "MiB"}});
  }
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value.first) || (!options.trace && value.first <= 0.0)) {
      report.correct = false;
      std::fprintf(stderr, "perfbench: metric %s is %g\n", name.c_str(), value.first);
    }
  }

  std::string rates;
  for (double rate : timed.RoundRates()) rates += " " + Number(rate);
  std::fprintf(stderr, "perfbench: %s seed %llu: %llu ops in %zu rounds over %.3f s, %llu failed\n"
               "perfbench: whole phase: %s ops/s, %s us CPU per op\n"
               "perfbench: round ops/s:%s\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(timed.ops()), timed.rounds(), timed.wall_s(),
               static_cast<unsigned long long>(report.failed),
               Number(timed.PhaseOpsPerSecond()).c_str(), Number(timed.PhaseCpuUsPerOp()).c_str(),
               rates.c_str());
  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".jsonl";
    if (!spans.WriteJsonLines(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    for (const auto& [name, summary] : spans.Summarize()) {
      std::fprintf(stderr, "perfbench: span %-34s count %8llu total %10.4f s self %10.4f s\n",
                   name.c_str(), static_cast<unsigned long long>(summary.count),
                   summary.total_s, summary.self_s);
    }
    std::fprintf(stderr, "perfbench: %zu spans kept, %llu over the cap, written to %s\n",
                 spans.spans().size(), static_cast<unsigned long long>(spans.dropped()),
                 path.c_str());
    // The tracing overhead is this against an untraced run's figures.
    std::fprintf(stderr, "perfbench: traced ops_per_s %s cpu_us_per_op %s\n",
                 Number(timed.OpsPerSecond()).c_str(), Number(timed.CpuUsPerOp()).c_str());
  }

  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].first + "\": {\"value\": " + Number(metrics[i].second.first) +
            ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
