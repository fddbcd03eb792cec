//===- perfbench/main.cpp - Seeded benchmark of the PROM guard --------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage:
//   perfbench --workload <engine_10k|fleet_churn|regress_10k>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--commit <id>]
//
// Prints a machine record, every metric by name with its unit, the
// correctness tallies, one `record {...}` JSON line with everything, and
// finally one JSON result line: {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics (--trace 0) or the per-layer
// metrics every workload shares (--trace 1). Exits 1 when any verdict path
// diverges from direct assessBatch, 2 on bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Kernels.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

using namespace perfbench;

namespace {

/// Effective core count: N spinning threads against one, as
/// N * t(1) / t(N). On a host that delivers fewer cores than it reports,
/// this is the number lane-scaling claims have to be read against.
double effectiveCores(unsigned N) {
  auto Spin = [] {
    volatile uint64_t X = 0;
    for (uint64_t I = 0; I < 30000000; ++I)
      X = X + I;
  };
  auto T0 = Clock::now();
  Spin();
  double One = secondsSince(T0);
  T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back(Spin);
  for (std::thread &T : Threads)
    T.join();
  return N * One / secondsSince(T0);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += jsonString(Ms[I].Name) + ": {\"value\": " +
           jsonNumber(Ms[I].Value) + ", \"unit\": " +
           jsonString(Ms[I].Unit) + "}";
  }
  return Out + "}";
}

void printMetrics(const char *Kind, const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("%-8s %-44s %16.6g %s\n", Kind, M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <engine_10k|fleet_churn|regress_10k> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--commit <id>]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  std::string Commit = "unknown";
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Opt.Workload = Val;
    else if (Key == "--seed")
      Opt.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      Opt.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      Opt.Trace = Val == "1";
    else if (Key == "--work-dir")
      Opt.WorkDir = Val;
    else if (Key == "--commit")
      Commit = Val;
    else
      return usage();
  }
  const std::map<std::string, void (*)(const Options &, RunResult &)> Runs = {
      {"engine_10k", runEngine},
      {"fleet_churn", runFleet},
      {"regress_10k", runRegress}};
  auto Run = Runs.find(Opt.Workload);
  if (Run == Runs.end() || Opt.WorkDir.empty() || !(Opt.Seconds > 0.0))
    return usage();

  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  double Cores = effectiveCores(std::min(Hw, 4u));
  size_t Lanes = prom::support::ThreadPool::global().numThreads();
  const char *Isa = prom::support::kernels::activeIsaName();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Opt.Seconds, Opt.Trace ? 1 : 0);
  std::printf("machine  effective_cores=%.2f (of %u reported) pool_lanes=%zu "
              "kernels=%s commit=%s\n",
              Cores, Hw, Lanes, Isa, Commit.c_str());

  RunResult Out;
  std::filesystem::create_directories(Opt.WorkDir);
  Run->second(Opt, Out);
  std::filesystem::remove_all(Opt.WorkDir);

  double FailedFrac =
      Out.Attempted ? static_cast<double>(Out.failed()) / Out.Attempted : 0.0;
  printMetrics("metric", Out.EndToEnd);
  printMetrics("layer", Out.PerLayer);
  printMetrics("ledger", Out.Ledger);
  for (const std::string &N : Out.Notes)
    std::printf("note     %s\n", N.c_str());
  std::printf("verdict_digest %s\n", Out.Digest.c_str());
  std::printf("operations attempted=%llu failed=%llu (shed=%llu "
              "unresolved=%llu mismatches=%llu) failed_frac=%.6g "
              "replica_exact=%d\n",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.failed()),
              static_cast<unsigned long long>(Out.Shed),
              static_cast<unsigned long long>(Out.Unresolved),
              static_cast<unsigned long long>(Out.Mismatches), FailedFrac,
              Out.ReplicaExact ? 1 : 0);

  std::vector<Metric> Ledger = Out.Ledger;
  Ledger.push_back({"failed_frac", FailedFrac, "fraction"});
  std::printf("record {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"machine\": {\"effective_cores\": %s, \"reported_cores\": %u, "
              "\"pool_lanes\": %zu, \"kernels\": %s, \"commit\": %s}, "
              "\"digest\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
              "\"ledger\": %s}\n",
              jsonString(Opt.Workload).c_str(),
              static_cast<unsigned long long>(Opt.Seed), Opt.Trace ? 1 : 0,
              jsonNumber(Cores).c_str(), Hw, Lanes, jsonString(Isa).c_str(),
              jsonString(Commit).c_str(), jsonString(Out.Digest).c_str(),
              metricsJson(Out.EndToEnd).c_str(),
              metricsJson(Out.PerLayer).c_str(), metricsJson(Ledger).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Out.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, Out.Attempted)),
              static_cast<unsigned long long>(Out.failed()),
              metricsJson(Opt.Trace ? Out.PerLayer : Out.EndToEnd).c_str());
  std::fflush(stdout);
  return Out.correct() ? 0 : 1;
}
