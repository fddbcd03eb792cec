//===- bench/refresh_bench.cpp - Online refresh vs full recalibrate -----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Latency of folding a small relabeled batch into a live calibration
// store, three ways:
//
//   full_recalibrate      - calibrate() on the union dataset: the "tear
//                           down and rebuild the detector" path the
//                           serving loop used before online refresh.
//                           Re-runs the model forward over every retained
//                           sample and refits the temperature.
//   refresh_full_rebuild  - refreshCalibration(Incremental=false): no
//                           retained-sample forwards, but a from-scratch
//                           finalize() of the union store (the reference
//                           path of the bit-identity contract).
//   refresh_incremental   - refreshCalibration(Incremental=true): the
//                           incremental CalibrationStore::refinalize()
//                           (column append; the cluster index, if any,
//                           keeps its rows and scans the tail exactly).
//
// Verdict equality across all three is asserted before timing, so every
// row is a pure cost comparison. The bounded variant repeats the
// incremental refresh with MaxCalibEntries pinned to the store size —
// the steady state of a continuously refreshed server, where every
// refresh also evicts oldest-first.
//
// Output: human-readable rows plus JSON result lines (bench::jsonResult
// schema); the CI workflow archives them as BENCH_refresh_bench.json.
// Pass --ci for the smaller repetition count used there.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "ml/Mlp.h"

#include <chrono>
#include <cstdio>
#include <cstring>

using namespace prom;
using namespace prom::bench;
using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point Start) {
  return 1e3 * std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Bench state: an MLP over 16-d features, a 10k-sample calibration set,
/// and a stream of 256-sample relabeled refresh batches.
struct RefreshBenchState {
  support::Rng R{BenchSeed};
  data::Dataset Train{"refresh", 6};
  data::Dataset Calib{"refresh", 6};
  data::Dataset Refresh{"refresh", 6};
  data::Dataset Probe{"refresh", 6};
  ml::MlpClassifier Model;

  RefreshBenchState(size_t CalibSize, size_t RefreshSize) {
    for (int I = 0; I < 1200; ++I)
      Train.add(makeSample(I % 6));
    for (size_t I = 0; I < CalibSize; ++I)
      Calib.add(makeSample(static_cast<int>(I % 6)));
    for (size_t I = 0; I < RefreshSize; ++I)
      Refresh.add(makeSample(static_cast<int>(I % 6)));
    for (int I = 0; I < 128; ++I)
      Probe.add(makeSample(I % 6));
    Model.fit(Train, R);
  }

  data::Sample makeSample(int Label) {
    data::Sample S;
    for (int D = 0; D < 16; ++D)
      S.Features.push_back(R.gaussian(Label * 0.7, 1.0));
    S.Label = Label;
    return S;
  }

  /// The union dataset the full recalibrate consumes.
  data::Dataset unionSet() const {
    data::Dataset U("refresh", 6);
    U.reserve(Calib.size() + Refresh.size());
    for (const data::Sample &S : Calib.samples())
      U.add(S);
    for (const data::Sample &S : Refresh.samples())
      U.add(S);
    return U;
  }
};

bool sameVerdicts(const std::vector<Verdict> &A,
                  const std::vector<Verdict> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].Predicted != B[I].Predicted || A[I].Drifted != B[I].Drifted ||
        A[I].VotesToFlag != B[I].VotesToFlag)
      return false;
    for (size_t E = 0; E < A[I].Experts.size(); ++E)
      if (A[I].Experts[E].Credibility != B[I].Experts[E].Credibility ||
          A[I].Experts[E].Confidence != B[I].Experts[E].Confidence)
        return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  bool Ci = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--ci") == 0)
      Ci = true;

  const size_t CalibSize = 10000; // The acceptance scale: 10k-entry store.
  const size_t RefreshSize = 256; // One relabeled refresh batch.
  const int Reps = Ci ? 3 : 5;

  RefreshBenchState S(CalibSize, RefreshSize);
  PromClassifier Prom(S.Model);
  Prom.calibrate(S.Calib);

  // Stage the calibrated baseline once; each timed rep restores it so
  // every path starts from the identical 10k-entry store.
  const char *Baseline = "refresh_bench_baseline.promsnap";
  if (!Prom.saveSnapshot(Baseline)) {
    std::fprintf(stderr, "FATAL: cannot stage baseline snapshot\n");
    return 1;
  }
  auto Restore = [&] {
    if (!Prom.loadSnapshot(Baseline)) {
      std::fprintf(stderr, "FATAL: baseline restore failed\n");
      std::exit(1);
    }
  };

  // Correctness gate: all three refresh paths must agree bit for bit.
  Prom.refreshCalibration(S.Refresh, /*Incremental=*/true);
  std::vector<Verdict> VInc = Prom.assessBatch(S.Probe);
  Restore();
  Prom.refreshCalibration(S.Refresh, /*Incremental=*/false);
  std::vector<Verdict> VFull = Prom.assessBatch(S.Probe);
  if (!sameVerdicts(VInc, VFull)) {
    std::fprintf(stderr,
                 "FATAL: incremental/full refresh divergence, not timing\n");
    return 1;
  }

  std::printf("== refresh_bench (calib=%zu, refresh=%zu) ==\n", CalibSize,
              RefreshSize);

  double FullRecal = 1e300, FullRebuild = 1e300, Incremental = 1e300,
         BoundedIncremental = 1e300;
  data::Dataset Union = S.unionSet();
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Restore();
    auto T0 = Clock::now();
    Prom.refreshCalibration(S.Refresh, /*Incremental=*/true);
    Incremental = std::min(Incremental, msSince(T0));

    Restore();
    T0 = Clock::now();
    Prom.refreshCalibration(S.Refresh, /*Incremental=*/false);
    FullRebuild = std::min(FullRebuild, msSince(T0));

    Restore();
    T0 = Clock::now();
    Prom.calibrate(Union);
    FullRecal = std::min(FullRecal, msSince(T0));

    // Steady state of a bounded store: the refresh also evicts 256
    // oldest entries to hold the size at 10k.
    Restore();
    Prom.config().MaxCalibEntries = CalibSize;
    T0 = Clock::now();
    Prom.refreshCalibration(S.Refresh, /*Incremental=*/true);
    BoundedIncremental = std::min(BoundedIncremental, msSince(T0));
    Prom.config().MaxCalibEntries = 0;
  }
  std::remove(Baseline);

  std::printf("full recalibrate (union calibrate)   : %9.2f ms\n", FullRecal);
  std::printf("refresh, full store rebuild          : %9.2f ms\n",
              FullRebuild);
  std::printf("refresh, incremental refinalize      : %9.2f ms\n",
              Incremental);
  std::printf("refresh, incremental + eviction bound: %9.2f ms\n",
              BoundedIncremental);
  std::printf("incremental vs full recalibrate      : %9.2fx\n",
              FullRecal / Incremental);
  std::printf("incremental vs full store rebuild    : %9.2fx\n",
              FullRebuild / Incremental);

  jsonResult("refresh_bench", "full_recalibrate_ms", FullRecal);
  jsonResult("refresh_bench", "refresh_full_rebuild_ms", FullRebuild);
  jsonResult("refresh_bench", "refresh_incremental_ms", Incremental);
  jsonResult("refresh_bench", "refresh_incremental_bounded_ms",
             BoundedIncremental);
  jsonResult("refresh_bench", "incremental_vs_full_recalibrate_speedup",
             FullRecal / Incremental);
  jsonResult("refresh_bench", "incremental_vs_full_rebuild_speedup",
             FullRebuild / Incremental);
  return 0;
}
