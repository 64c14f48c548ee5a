/// bench_e2e — end-to-end and per-layer benchmark of the Dyn-FO engine.
///
/// Usage:
///   bench_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
///             [--root=DIR] [--work-dir=DIR]
///
///   NAME       registry_mix | reach_u_durable | served_mixed
///   --trace=0  end-to-end metrics from an untraced run
///   --trace=1  per-layer metrics from a traced run (timers + counters)
///   --root     checkout root; specs/ is read from it (default: .)
///   --work-dir scratch directory for stores and sockets (default:
///              <root>/.bench_build/work); must exist
///
/// The last line printed is the JSON result (see report.h). Exit code 0
/// when the run completed (correct or not), 2 on bad usage or an
/// unoptimized build.

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "stats.h"
#include "workloads.h"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif
#ifndef BENCH_E2E_CXX_FLAGS
#define BENCH_E2E_CXX_FLAGS "unknown"
#endif

namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload=registry_mix|reach_u_durable|"
               "served_mixed --seed=N --seconds=S --trace=0|1 [--root=DIR] "
               "[--work-dir=DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "error: bench_e2e refuses to run from an unoptimized build\n");
  return 2;
#endif
  bench_e2e::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", &value)) {
      config.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &value)) {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (ParseFlag(arg, "root", &value)) {
      config.root = value;
    } else if (ParseFlag(arg, "work-dir", &value)) {
      config.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (config.work_dir.empty()) config.work_dir = config.root + "/.bench_build/work";

  bench_e2e::Result result;
  if (config.workload == "registry_mix") {
    result = bench_e2e::RunRegistryMix(config);
  } else if (config.workload == "reach_u_durable") {
    result = bench_e2e::RunReachUDurable(config);
  } else if (config.workload == "served_mixed") {
    result = bench_e2e::RunServedMixed(config);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  struct utsname host;
  const bool named = ::uname(&host) == 0;
  result.provenance["workload"] = config.workload;
  result.provenance["seed"] = std::to_string(config.seed);
  result.provenance["held_out_seed"] = std::to_string(bench_e2e::kHeldOutSeed);
  result.provenance["seconds"] = std::to_string(config.seconds);
  result.provenance["trace"] = config.trace ? "1" : "0";
  result.provenance["nproc"] = std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  result.provenance["compiler"] = std::string("g++ ") + __VERSION__;
  result.provenance["build_type"] = BENCH_E2E_BUILD_TYPE;
  result.provenance["cxx_flags"] = BENCH_E2E_CXX_FLAGS;
  result.provenance["kernel"] = named ? std::string(host.sysname) + " " + host.release : "?";
  result.provenance["store_fs"] = bench_e2e::FilesystemType(config.work_dir);
  result.Print(config);
  return 0;
}
