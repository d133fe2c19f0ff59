// homets_perfbench: the repository benchmark's harness (see ../README.md).
//
//   homets_perfbench --workload analyze_long --seed 11 --seconds 20
//                    --trace 0 --work-dir DIR [--expect-digest HEX]
//                    [--trace-out FILE] [--gateways N] [--weeks W]
//                    [--setup-reps N] [--reference-only]
//
// Generates the workload's fleet from its seed, builds the reference
// output, then either times the workload's end-to-end path (--trace 0) or
// runs the traced per-layer split (--trace 1). The last stdout line is one
// JSON object with the outcome, every metric with its unit, the output
// digest and the host block. Exit 0 when every output matched its
// reference, 1 on a mismatch, 2 on a usage or run error.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "analyze.h"
#include "bench.h"
#include "common/failpoint.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"
#include "stream.h"
#include "traced.h"

namespace perfbench {
namespace {

using homets::Result;
using homets::Status;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : ", ") + JsonNumber(v);
  return out;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string HostJson(int threads) {
  return "{\"cpu_model\": " + JsonString(CpuModel()) +
         ", \"nproc\": " + std::to_string(AvailableCpus()) +
         ", \"threads_given\": " + std::to_string(threads) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"cxx_flags\": " + JsonString(PERFBENCH_CXX_FLAGS) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) + "}";
}

/// Byte-level digest of a file, to check that every set-up repeat wrote
/// the same fleet.
Result<std::string> FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Digest(bytes);
}

struct SetUpResult {
  std::vector<double> walls;  ///< seconds, one per repeat
  size_t gateways = 0;        ///< non-empty gateways written
  size_t devices = 0;         ///< devices written
};

/// Generates the workload's fleet `reps` times, each a fresh file.
Result<SetUpResult> SetUp(const RunContext& ctx, int reps, Outcome* outcome) {
  homets::simgen::SimConfig config;
  config.n_gateways = ctx.workload.gateways;
  config.weeks = ctx.workload.weeks;
  config.seed = ctx.seed;
  config.surveyed_gateways =
      std::min(config.surveyed_gateways, config.n_gateways);
  if (!ctx.workload.outages) {
    config.long_outage_prob = 0.0;
    config.unreliable_daily_prob = 0.0;
  }
  HOMETS_RETURN_IF_ERROR(homets::simgen::ValidateSimConfig(config));
  SetUpResult out;
  std::string first_digest;
  for (int r = 0; r < reps; ++r) {
    std::filesystem::remove(ctx.fleet_path);
    const Clock::time_point t0 = Clock::now();
    const homets::simgen::FleetGenerator generator(config);
    HOMETS_ASSIGN_OR_RETURN(
        const auto stats,
        homets::storage::WriteFleetHomets(generator, ctx.fleet_path));
    out.walls.push_back(SecondsSince(t0));
    if (stats.gateways == 0) {
      return Status::InvalidArgument("workload fleet has no gateways");
    }
    out.gateways = stats.gateways;
    out.devices = stats.devices;
    HOMETS_ASSIGN_OR_RETURN(const std::string digest,
                            FileDigest(ctx.fleet_path));
    if (r == 0) first_digest = digest;
    if (digest != first_digest) {
      outcome->Mismatch("set-up repeats wrote different fleets");
    }
  }
  return out;
}

/// simgen's calibration: about five regular devices per gateway.
constexpr double kNominalDevicesPerGateway = 5.0;

/// \brief Median set-up time scaled to the workload's nominal fleet of
/// `gateways` × 5 devices.
///
/// Generation cost grows with the devices a seed draws, and at a fixed
/// gateway count that varies by 2x between seeds (analyze_long: 28–55), so
/// the raw time would move with the seed rather than with the code.
double NominalSetUpSeconds(const RunContext& ctx, const SetUpResult& setup) {
  const double nominal = kNominalDevicesPerGateway * ctx.workload.gateways;
  return Median(setup.walls) * nominal /
         static_cast<double>(std::max<size_t>(setup.devices, 1));
}

/// Checks a primary output digest against the committed reference.
void CheckDigest(const RunContext& ctx, const std::string& digest,
                 Outcome* outcome) {
  if (!ctx.expect_digest.empty() && digest != ctx.expect_digest) {
    outcome->Mismatch("output digest " + digest +
                      " differs from the committed reference " +
                      ctx.expect_digest);
    outcome->failed = std::max(outcome->failed, outcome->attempted);
  }
}

struct Untraced {
  std::string digest;         ///< of the reference output
  /// Input size of one pass: device counters decoded (analyze), minutes
  /// ingested (stream).
  uint64_t observations = 0;
  TimedPasses timed;          ///< empty unless timed
};

/// Builds the reference output (untimed; it also warms caches) and, with
/// `timed`, runs the workload's timed phase.
Result<Untraced> RunUntraced(const RunContext& ctx, bool timed,
                             Outcome* outcome) {
  Untraced out;
  if (ctx.workload.stream) {
    HOMETS_ASSIGN_OR_RETURN(const StreamPass reference,
                            RunStreamPass(ctx.fleet_path));
    outcome->attempted += reference.attempted();
    outcome->failed += reference.failed();
    out.digest = Digest(reference.table);
    out.observations = reference.minutes;
    if (timed) {
      HOMETS_ASSIGN_OR_RETURN(
          out.timed, RunStreamTimed(ctx, reference.table, outcome));
    }
    return out;
  }
  const homets::fleet::FleetOptions options = AnalyzeOptions(ctx);
  HOMETS_ASSIGN_OR_RETURN(
      const auto inputs,
      homets::fleet::EnumerateFleetInputs({ctx.fleet_path}, options.dataset));
  HOMETS_ASSIGN_OR_RETURN(const FleetReference reference,
                          BuildReference(inputs, options, ctx.threads));
  out.digest = Digest(reference.figures);
  out.observations = reference.observations;
  if (timed) {
    HOMETS_ASSIGN_OR_RETURN(out.timed,
                            RunAnalyzeTimed(ctx, reference, outcome));
  }
  return out;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  bool reference_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << arg << "\n";
      return 2;
    }
    if (arg == "--reference-only") {
      reference_only = true;
    } else if (i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      std::cerr << "flag " << arg << " needs a value\n";
      return 2;
    }
  }
  const Workload* workload = FindWorkload(flags["workload"]);
  if (workload == nullptr || flags["work-dir"].empty()) {
    std::cerr << "usage: homets_perfbench --workload analyze_long|"
                 "analyze_wide|stream_daily --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n";
    return 2;
  }
  const auto flag_int = [&](const std::string& name, long long fallback) {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : std::stoll(it->second);
  };
  RunContext ctx;
  ctx.workload = *workload;
  ctx.workload.gateways =
      static_cast<int>(flag_int("gateways", workload->gateways));
  ctx.workload.weeks = static_cast<int>(flag_int("weeks", workload->weeks));
  ctx.seed = static_cast<uint64_t>(flag_int("seed", 11));
  ctx.seconds = static_cast<double>(flag_int("seconds", 10));
  ctx.threads = std::clamp(AvailableCpus(), 1, 4);
  ctx.work_dir = flags["work-dir"];
  ctx.fleet_path = ctx.work_dir + "/fleet.homets";
  ctx.trace_out = flags["trace-out"];
  ctx.expect_digest = flags["expect-digest"];
  const bool traced = flag_int("trace", 0) != 0;
  const int setup_reps = static_cast<int>(flag_int("setup-reps", 3));

  // HOMETS_FAILPOINTS arms fault injection, as it does for the CLI.
  const Status armed = homets::Failpoints::Global().ConfigureFromEnv();
  if (!armed.ok()) {
    std::cerr << "HOMETS_FAILPOINTS: " << armed.ToString() << "\n";
    return 2;
  }
  std::filesystem::create_directories(ctx.work_dir);

  Outcome outcome;
  Metrics metrics;
  const auto setup = SetUp(ctx, reference_only ? 1 : setup_reps, &outcome);
  if (!setup.ok()) {
    std::cerr << "set-up failed: " << setup.status().ToString() << "\n";
    return 2;
  }
  std::string digest;
  std::string walls;  // every timed pass, for the full record
  if (traced) {
    const auto result = RunTraced(ctx, &outcome, &metrics);
    if (!result.ok()) {
      std::cerr << "run failed: " << result.status().ToString() << "\n";
      return 2;
    }
    digest = *result;
  } else {
    const auto result = RunUntraced(ctx, !reference_only, &outcome);
    if (!result.ok()) {
      std::cerr << "run failed: " << result.status().ToString() << "\n";
      return 2;
    }
    digest = result->digest;
    if (!reference_only) {
      metrics.push_back({"setup_s", NominalSetUpSeconds(ctx, *setup), "s"});
      metrics.push_back({"obs_per_s",
                         static_cast<double>(result->observations) /
                             Median(result->timed.walls),
                         "observations/s"});
      metrics.push_back({"peak_heap_mb", result->timed.peak_heap_mib, "MiB"});
      walls = JsonNumbers(result->timed.walls);
    }
  }
  CheckDigest(ctx, digest, &outcome);
  for (const std::string& problem : outcome.problems) {
    std::cerr << "perfbench: " << problem << "\n";
  }

  std::string json = "{\"workload\": " + JsonString(ctx.workload.name) +
                     ", \"seed\": " + std::to_string(ctx.seed) +
                     ", \"trace\": " + (traced ? "1" : "0") +
                     ", \"gateways\": " + std::to_string(setup->gateways) +
                     ", \"devices\": " + std::to_string(setup->devices) +
                     ", \"setup_walls_s\": [" + JsonNumbers(setup->walls) + "]" +
                     ", \"correct\": " + (outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"digest\": " + JsonString(digest) +
                     (walls.empty() ? "" : ", \"pass_walls_s\": [" + walls + "]") +
                     ", \"host\": " + HostJson(ctx.threads) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name);
    json += ": {\"value\": " + JsonNumber(metrics[i].value);
    json += ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  std::cout << json << "}}" << std::endl;
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {  // a malformed flag, a filesystem error
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
