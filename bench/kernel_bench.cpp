//===- bench/kernel_bench.cpp - Kernel-layer throughput ---------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Single-core throughput of the support/Kernels layer on the two hot
// loops of the assessment engine:
//
//  * the calibration distance scan (one query vs N rows) at calibration
//    set sizes 1k/10k/100k, comparing (a) the pre-refactor path — a
//    sequential scalar sum over vector<vector<double>> rows — against
//    (b) the scalar lane-fold kernel on the flat FeatureMatrix block and
//    (c) the dispatched (AVX2 when available) kernel on the same block;
//  * the blocked matmul behind the batched model forwards, scalar kernel
//    vs dispatched kernel;
//  * the lossless cluster-pruned k-NN (support/ClusterIndex) against the
//    exact flat scan at 10^5 and 10^6 rows, plus a sweep over smaller row
//    counts that records the crossover point where pruning starts to win.
//    Both paths are verified bit-identical before any timing;
//  * the same comparison at the regressor's k-NN shape, 10^4 16-d rows
//    with K = 4 self-queries (calibration) and K = 3 outside queries
//    (assessment), in us per query and the fraction of rows scanned;
//  * the calibration store's two passes after the distance scan, the
//    selection cut and the Eq. (2) block fold, scalar reference against
//    the dispatched kernel at 10^4 entries in two shapes: the default
//    4-expert WeightedCount committee over a 50% selection, and the
//    1-expert unweighted full selection of the baselines. Each query's
//    outputs are checked bit for bit before timing, and the whole store
//    pass (scan, cut, fold) is timed through the CalibrationStore API;
//  * the Eq. (1) weight e^-x on the engine shape's exponents, in ns per
//    argument: libm's exp (the fold's weight before support::kernels
//    owned it), the scalar expNeg and the dispatched four-lane form. The
//    run stops FATAL when the two forms differ on any argument of the
//    sweep. The unweighted baseline store rows run no weight and are the
//    control for a change to it.
//
// Emits human-readable rows plus one JSON result line per metric (same
// schema as the other benches; CI greps '^{' into BENCH_kernel_bench.json).
// --ci shrinks the repetition budget, not the problem sizes.
//
//===----------------------------------------------------------------------===//

#include "core/CalibrationStore.h"
#include "support/ClusterIndex.h"
#include "support/Distance.h"
#include "support/FeatureMatrix.h"
#include "support/Kernels.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace prom;
using namespace prom::support;

namespace {

double SinkAccum = 0.0; // Defeats dead-code elimination across runs.

void jsonResult(const std::string &Metric, double Value) {
  std::printf("{\"bench\": \"kernel_bench\", \"metric\": \"%s\", "
              "\"value\": %g}\n",
              Metric.c_str(), Value);
}

/// The pre-refactor distance scan: sequential accumulation over one
/// pointer-chased row per entry (the old support::squaredEuclidean inner
/// loop, kept here verbatim as the bench baseline).
double preRefactorScan(const std::vector<std::vector<double>> &Rows,
                       const std::vector<double> &Query,
                       std::vector<double> &Out) {
  double Fold = 0.0;
  for (size_t I = 0; I < Rows.size(); ++I) {
    const std::vector<double> &Row = Rows[I];
    double Sum = 0.0;
    for (size_t D = 0; D < Row.size(); ++D) {
      double Diff = Row[D] - Query[D];
      Sum += Diff * Diff;
    }
    Out[I] = Sum;
    Fold += Sum;
  }
  return Fold;
}

/// Runs \p Body repeatedly until \p MinMillis of wall time accumulate and
/// returns the best observed entries-per-second rate over the repeats.
template <typename Fn>
double bestRate(size_t Entries, double MinMillis, Fn &&Body) {
  using Clock = std::chrono::steady_clock;
  double Best = 0.0;
  double SpentMs = 0.0;
  do {
    Clock::time_point T0 = Clock::now();
    SinkAccum += Body();
    double Ms = std::chrono::duration<double, std::milli>(Clock::now() - T0)
                    .count();
    SpentMs += Ms;
    double Rate = static_cast<double>(Entries) / (Ms * 1e-3);
    if (Rate > Best)
      Best = Rate;
  } while (SpentMs < MinMillis);
  return Best;
}

void scanBench(size_t N, size_t Dim, double MinMillis, Rng &R) {
  // The pre-refactor scan walked CalibrationEntry::Embed vectors that were
  // allocated entry by entry, interleaved with each entry's Scores vector —
  // reproduce that heap layout instead of flattering the baseline with
  // back-to-back row allocations.
  std::vector<std::vector<double>> Rows;
  std::vector<std::vector<double>> InterleavedScores;
  Rows.reserve(N);
  InterleavedScores.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> Row(Dim);
    for (double &V : Row)
      V = R.gaussian(0.0, 1.0);
    Rows.push_back(std::move(Row));
    InterleavedScores.emplace_back(4, 0.5); // One score per expert.
  }
  FeatureMatrix Flat = FeatureMatrix::fromRows(Rows);
  std::vector<double> Query(Dim);
  for (double &V : Query)
    V = R.gaussian(0.0, 1.0);
  std::vector<double> Out(N);

  double PreRefactor = bestRate(N, MinMillis, [&] {
    return preRefactorScan(Rows, Query, Out);
  });
  double ScalarKernel = bestRate(N, MinMillis, [&] {
    kernels::scalar::l2Sq1xN(Query.data(), Flat.data(), N, Dim,
                             Flat.stride(), Out.data());
    return Out[N / 2];
  });
  double Dispatched = bestRate(N, MinMillis, [&] {
    kernels::l2Sq1xN(Query.data(), Flat.data(), N, Dim, Flat.stride(),
                     Out.data());
    return Out[N / 2];
  });

  std::string Tag = "scan_n" + std::to_string(N);
  std::printf("distance scan N=%-7zu dim=%zu : pre-refactor %8.1f Mrows/s | "
              "scalar kernel %8.1f Mrows/s | %s kernel %8.1f Mrows/s | "
              "speedup vs pre-refactor %.2fx\n",
              N, Dim, PreRefactor / 1e6, ScalarKernel / 1e6,
              kernels::activeIsaName(), Dispatched / 1e6,
              Dispatched / PreRefactor);
  jsonResult(Tag + "_prerefactor_mrows_per_s", PreRefactor / 1e6);
  jsonResult(Tag + "_scalar_kernel_mrows_per_s", ScalarKernel / 1e6);
  jsonResult(Tag + "_dispatched_mrows_per_s", Dispatched / 1e6);
  jsonResult(Tag + "_speedup_vs_prerefactor", Dispatched / PreRefactor);
}

void matmulBench(size_t N, size_t K, size_t M, double MinMillis, Rng &R) {
  std::vector<double> A(N * K), B(K * M), Bias(M), Out(N * M);
  for (double &V : A)
    V = R.gaussian(0.0, 1.0);
  for (double &V : B)
    V = R.gaussian(0.0, 1.0);
  for (double &V : Bias)
    V = R.gaussian(0.0, 1.0);

  double Flops = 2.0 * static_cast<double>(N) * K * M;
  double ScalarRate = bestRate(1, MinMillis, [&] {
    kernels::scalar::matmul(A.data(), N, K, B.data(), M, Bias.data(),
                            Out.data());
    return Out[0];
  });
  double DispatchRate = bestRate(1, MinMillis, [&] {
    kernels::matmul(A.data(), N, K, B.data(), M, Bias.data(), Out.data());
    return Out[0];
  });

  std::string Tag = "matmul_" + std::to_string(N) + "x" + std::to_string(K) +
                    "x" + std::to_string(M);
  std::printf("matmul %4zux%zux%zu            : scalar kernel %8.2f GFLOP/s "
              "| %s kernel %8.2f GFLOP/s | speedup %.2fx\n",
              N, K, M, ScalarRate * Flops / 1e9, kernels::activeIsaName(),
              DispatchRate * Flops / 1e9, DispatchRate / ScalarRate);
  jsonResult(Tag + "_scalar_gflops", ScalarRate * Flops / 1e9);
  jsonResult(Tag + "_dispatched_gflops", DispatchRate * Flops / 1e9);
  jsonResult(Tag + "_speedup", DispatchRate / ScalarRate);
}

//===----------------------------------------------------------------------===//
// Cluster-pruned k-NN vs exact flat scan
//===----------------------------------------------------------------------===//

/// Blob-structured rows: \p NumBlobs Gaussian clusters with unit spread
/// around centers drawn at scale \p CenterScale. At the default 8 the
/// blobs stand apart — the shape calibration embeddings take in practice
/// (per-class clusters), and the regime the coarse quantizer is built for.
/// Queries are drawn near the same centers.
FeatureMatrix makeBlobRows(size_t N, size_t Dim, size_t NumBlobs, Rng &R,
                           double CenterScale = 8.0) {
  std::vector<double> Centers(NumBlobs * Dim);
  for (double &V : Centers)
    V = R.gaussian(0.0, CenterScale);
  FeatureMatrix Rows;
  Rows.reset(N, Dim);
  std::vector<double> Row(Dim);
  for (size_t I = 0; I < N; ++I) {
    const double *C = Centers.data() + (I % NumBlobs) * Dim;
    for (size_t D = 0; D < Dim; ++D)
      Row[D] = C[D] + R.gaussian(0.0, 1.0);
    Rows.setRow(I, Row.data());
  }
  return Rows;
}

struct ClusterBenchResult {
  double ExactUs = 0.0;       ///< Exact scan+select, us per query.
  double PrunedUs = 0.0;      ///< nearestPruned(), us per query.
  double BuildSec = 0.0;      ///< One-time index build.
  double ListsFraction = 1.0; ///< Mean lists scanned / lists total.
  double RowsFraction = 1.0;  ///< Mean rows scanned / rows total.
};

/// Times the exact flat scan (l2Sq1xN + selectNearest) against
/// ClusterIndex::nearestPruned on \p Rows, after verifying the two return
/// bit-identical (distSq, id) pairs per query. The queries lie near random
/// rows, or with \p SelfQueries are copies of them.
ClusterBenchResult clusterKnnBench(const FeatureMatrix &Rows,
                                   size_t Centroids, size_t K,
                                   double MinMillis, Rng &R,
                                   bool SelfQueries = false) {
  const size_t NumQueries = 8;
  const size_t N = Rows.rows(), Dim = Rows.dim();

  using Clock = std::chrono::steady_clock;
  Clock::time_point B0 = Clock::now();
  ClusterIndex Index;
  Index.build(Rows, N, Centroids, /*Seed=*/20250301ull);
  ClusterBenchResult Res;
  Res.BuildSec =
      std::chrono::duration<double>(Clock::now() - B0).count();

  std::vector<std::vector<double>> Queries(NumQueries,
                                           std::vector<double>(Dim));
  for (auto &Q : Queries) {
    const double *Base = Rows.rowPtr(R.bounded(N));
    for (size_t D = 0; D < Dim; ++D)
      Q[D] = SelfQueries ? Base[D] : Base[D] + R.gaussian(0.0, 0.5);
  }

  // Losslessness gate: timing a wrong answer would be meaningless.
  std::vector<double> DistSq(N);
  double ListsFrac = 0.0, RowsFrac = 0.0;
  for (const std::vector<double> &Q : Queries) {
    kernels::l2Sq1xN(Q.data(), Rows.data(), N, Dim, Rows.stride(),
                     DistSq.data());
    std::vector<size_t> Exact = selectNearest(DistSq.data(), N, K);
    ClusterScanStats Stats;
    std::vector<std::pair<double, uint32_t>> Pruned =
        Index.nearestPruned(Q.data(), K, &Stats);
    if (Pruned.size() != Exact.size()) {
      std::fprintf(stderr, "FATAL: pruned k-NN size mismatch at N=%zu\n", N);
      std::exit(1);
    }
    for (size_t I = 0; I < Exact.size(); ++I) {
      if (Pruned[I].second != Exact[I] ||
          Pruned[I].first != DistSq[Exact[I]]) {
        std::fprintf(stderr,
                     "FATAL: pruned k-NN diverges from the exact scan at "
                     "N=%zu rank %zu\n",
                     N, I);
        std::exit(1);
      }
    }
    ListsFrac += static_cast<double>(Stats.ListsScanned) /
                 static_cast<double>(Stats.ListsTotal);
    RowsFrac += static_cast<double>(Stats.RowsScanned) /
                static_cast<double>(Stats.RowsTotal);
  }
  Res.ListsFraction = ListsFrac / static_cast<double>(NumQueries);
  Res.RowsFraction = RowsFrac / static_cast<double>(NumQueries);

  // Each body runs the whole query set; best-of per-query time over the
  // MinMillis budget.
  auto BestPerQueryUs = [&](auto &&Body) {
    double Best = 1e300, SpentMs = 0.0;
    do {
      Clock::time_point T0 = Clock::now();
      SinkAccum += Body();
      double Ms =
          std::chrono::duration<double, std::milli>(Clock::now() - T0)
              .count();
      SpentMs += Ms;
      Best = std::min(Best, Ms * 1e3 / static_cast<double>(NumQueries));
    } while (SpentMs < MinMillis);
    return Best;
  };

  Res.ExactUs = BestPerQueryUs([&] {
    double Fold = 0.0;
    for (const std::vector<double> &Q : Queries) {
      kernels::l2Sq1xN(Q.data(), Rows.data(), N, Dim, Rows.stride(),
                       DistSq.data());
      Fold += DistSq[selectNearest(DistSq.data(), N, K).front()];
    }
    return Fold;
  });
  Res.PrunedUs = BestPerQueryUs([&] {
    double Fold = 0.0;
    for (const std::vector<double> &Q : Queries)
      Fold += Index.nearestPruned(Q.data(), K).front().first;
    return Fold;
  });
  return Res;
}

/// Batched pruned scan (nearestPrunedBatch) against the per-query pruned
/// loop on the same index, verified bit-identical — pairs and stats —
/// before timing. The batch runs the same per-query walk, so these rows
/// measure only its ThreadPool fan-out over queries: about 1x on one
/// lane, scaling with pool lanes (reported separately so artifacts from
/// 1-core and 4-core runners stay comparable).
void clusterBatchBench(size_t N, size_t Dim, size_t Centroids, size_t K,
                       double MinMillis, Rng &R) {
  const size_t NumBlobs = 64;
  const size_t NumQueries = 64;
  FeatureMatrix Rows = makeBlobRows(N, Dim, NumBlobs, R);
  ClusterIndex Index;
  Index.build(Rows, N, Centroids, /*Seed=*/20250301ull);

  FeatureMatrix Queries(NumQueries, Dim);
  std::vector<double> Q(Dim);
  for (size_t I = 0; I < NumQueries; ++I) {
    const double *Base = Rows.rowPtr(R.bounded(N));
    for (size_t D = 0; D < Dim; ++D)
      Q[D] = Base[D] + R.gaussian(0.0, 0.5);
    Queries.setRow(I, Q.data());
  }

  // Bit-identity gate: pairs AND pruning counters per query.
  std::vector<ClusterScanStats> BatchStats;
  std::vector<std::vector<std::pair<double, uint32_t>>> Batch =
      Index.nearestPrunedBatch(Queries, K, &BatchStats);
  for (size_t I = 0; I < NumQueries; ++I) {
    ClusterScanStats Serial;
    std::vector<std::pair<double, uint32_t>> Want =
        Index.nearestPruned(Queries.rowPtr(I), K, &Serial);
    bool Same = Batch[I].size() == Want.size() &&
                BatchStats[I].ListsScanned == Serial.ListsScanned &&
                BatchStats[I].RowsScanned == Serial.RowsScanned;
    for (size_t J = 0; Same && J < Want.size(); ++J)
      Same = Batch[I][J].first == Want[J].first &&
             Batch[I][J].second == Want[J].second;
    if (!Same) {
      std::fprintf(stderr,
                   "FATAL: nearestPrunedBatch diverges from nearestPruned "
                   "at N=%zu query %zu\n",
                   N, I);
      std::exit(1);
    }
  }

  using Clock = std::chrono::steady_clock;
  auto BestPerQueryUs = [&](auto &&Body) {
    double Best = 1e300, SpentMs = 0.0;
    do {
      Clock::time_point T0 = Clock::now();
      SinkAccum += Body();
      double Ms =
          std::chrono::duration<double, std::milli>(Clock::now() - T0)
              .count();
      SpentMs += Ms;
      Best = std::min(Best, Ms * 1e3 / static_cast<double>(NumQueries));
    } while (SpentMs < MinMillis);
    return Best;
  };

  double PerQueryUs = BestPerQueryUs([&] {
    double Fold = 0.0;
    for (size_t I = 0; I < NumQueries; ++I)
      Fold += Index.nearestPruned(Queries.rowPtr(I), K).front().first;
    return Fold;
  });
  double BatchUs = BestPerQueryUs([&] {
    return Index.nearestPrunedBatch(Queries, K).front().front().first;
  });

  size_t Lanes = ThreadPool::global().numThreads();
  std::printf("  N=%-8zu: per-query pruned %8.1f us/query | batched pruned "
              "%8.1f us/query | speedup %5.2fx | pool lanes %zu\n",
              N, PerQueryUs, BatchUs, PerQueryUs / BatchUs, Lanes);
  std::string Tag = "cluster_scan_batch_n" + std::to_string(N);
  jsonResult(Tag + "_perquery_us", PerQueryUs);
  jsonResult(Tag + "_batch_us_per_query", BatchUs);
  jsonResult(Tag + "_speedup", PerQueryUs / BatchUs);
  jsonResult(Tag + "_pool_lanes", static_cast<double>(Lanes));
}

/// The two store-scale configurations (full JSON) plus the crossover sweep
/// over smaller row counts (one summary metric).
void clusterScanStudy(double MinMillis, Rng &R) {
  const size_t Dim = 32; // Embedding-sized rows.
  const size_t K = 16;

  std::printf("\ncluster-pruned k-NN vs exact scan (dim=%zu, k=%zu, "
              "blob-structured rows)\n",
              Dim, K);
  for (size_t N : {100000u, 1000000u}) {
    // Auto centroid count (~sqrt N) except at 10^6, where 512 caps the
    // one-time build cost while keeping lists far below the scan budget.
    size_t Centroids = N >= 500000 ? 512 : 0;
    ClusterBenchResult Res = clusterKnnBench(
        makeBlobRows(N, Dim, /*NumBlobs=*/64, R), Centroids, K, MinMillis, R);
    std::printf("  N=%-8zu: exact %9.1f us/query | pruned %8.1f us/query | "
                "speedup %5.2fx | lists scanned %4.1f%% | rows scanned "
                "%4.1f%% | build %.2fs\n",
                N, Res.ExactUs, Res.PrunedUs, Res.ExactUs / Res.PrunedUs,
                100.0 * Res.ListsFraction, 100.0 * Res.RowsFraction,
                Res.BuildSec);
    std::string Tag = "cluster_scan_n" + std::to_string(N);
    jsonResult(Tag + "_exact_us_per_query", Res.ExactUs);
    jsonResult(Tag + "_pruned_us_per_query", Res.PrunedUs);
    jsonResult(Tag + "_speedup", Res.ExactUs / Res.PrunedUs);
    jsonResult(Tag + "_lists_scanned_fraction", Res.ListsFraction);
    jsonResult(Tag + "_rows_scanned_fraction", Res.RowsFraction);
    jsonResult(Tag + "_index_build_s", Res.BuildSec);
  }

  std::printf("\nbatched pruned scan vs per-query pruned loop (dim=%zu, "
              "k=%zu, %zu-query batches)\n",
              Dim, K, size_t(64));
  for (size_t N : {100000u, 1000000u}) {
    size_t Centroids = N >= 500000 ? 512 : 0;
    clusterBatchBench(N, Dim, Centroids, K, MinMillis, R);
  }

  // Crossover sweep: the smallest row count where the pruned scan beats
  // the exact one — the number support::ClusterIndexMinEntries should sit
  // past.
  size_t Crossover = 0;
  for (size_t N : {1000u, 2000u, 4000u, 8000u, 16000u, 32000u, 64000u}) {
    ClusterBenchResult Res =
        clusterKnnBench(makeBlobRows(N, Dim, /*NumBlobs=*/64, R),
                        /*Centroids=*/0, K, std::min(MinMillis, 40.0), R);
    std::printf("  N=%-8zu: exact %9.1f us/query | pruned %8.1f us/query | "
                "speedup %5.2fx\n",
                N, Res.ExactUs, Res.PrunedUs, Res.ExactUs / Res.PrunedUs);
    if (Crossover == 0 && Res.PrunedUs < Res.ExactUs)
      Crossover = N;
  }
  std::printf("  crossover (first pruned win): N=%zu\n", Crossover);
  jsonResult("cluster_knn_crossover_n", static_cast<double>(Crossover));
}

/// The regressor's k-NN ground truth at regress_10k's shape: 10^4 16-d
/// rows under the auto centroid count. Calibration asks for K + 1 = 4
/// rows around each calibration row and drops the row itself (copies of
/// rows as queries); assessment asks for K = 3 around an input (queries
/// off the rows). The blob centers are drawn at scale 2, where the blobs
/// overlap, so the walk scans 15% (assess) and 27% (calibrate) of the
/// rows, against 16% and 21% on regress_10k's embeddings. Its own
/// generator keeps the rows and queries, and so the rows-scanned
/// fractions, independent of what the benches before it draw.
void regressorKnnBench(double MinMillis) {
  struct Shape {
    const char *Name;
    size_t K;
    bool SelfQueries;
  };
  std::printf("\nregressor k-NN ground truth (10^4 rows, dim=16, "
              "blob-structured rows)\n");
  Rng R(20250324);
  FeatureMatrix Rows =
      makeBlobRows(10000, 16, /*NumBlobs=*/64, R, /*CenterScale=*/2.0);
  for (const Shape &S : {Shape{"calibrate", 4, true},
                         Shape{"assess", 3, false}}) {
    ClusterBenchResult Res = clusterKnnBench(Rows, /*Centroids=*/0, S.K,
                                             MinMillis, R, S.SelfQueries);
    std::printf("  %-9s k=%zu: exact %7.1f us/query | pruned %6.1f "
                "us/query | rows scanned %4.1f%%\n",
                S.Name, S.K, Res.ExactUs, Res.PrunedUs,
                100.0 * Res.RowsFraction);
    std::string Tag = std::string("regressor_knn_") + S.Name + "_k" +
                      std::to_string(S.K);
    jsonResult(Tag + "_exact_us_per_query", Res.ExactUs);
    jsonResult(Tag + "_pruned_us_per_query", Res.PrunedUs);
    jsonResult(Tag + "_rows_scanned_fraction", Res.RowsFraction);
  }
}

//===----------------------------------------------------------------------===//
// Calibration-store passes: selection cut and Eq. (2) fold
//===----------------------------------------------------------------------===//

/// One store shape: \p NumExp experts scored over \p N blob-structured
/// \p Dim-d entries with \p NumLabels labels, and the selection policy.
struct StoreShape {
  const char *Name;
  size_t NumExp;
  size_t NumLabels;
  CalibrationWeightMode Mode;
  double SelectFraction; ///< 1 selects every entry.
};

/// The Eq. (1) weight three ways over \p X, the exponents the fold
/// computes for the engine shape's selected entries: libm's exp behind the
/// same 746 cut, the scalar expNeg, and the dispatched array form. Before
/// timing, the two forms must agree bit for bit on X and on a sweep over
/// [0, 750] with its special values.
void expBench(const std::vector<double> &X, double MinMillis, Rng &R) {
  std::vector<double> Sweep = X;
  for (size_t I = 0; I < 200000; ++I)
    Sweep.push_back(R.uniform(0.0, 750.0));
  Sweep.insert(Sweep.end(), {0.0, -0.0, 746.0, HUGE_VAL, NAN});
  std::vector<double> Want(Sweep.size()), Got(Sweep.size());
  for (size_t I = 0; I < Sweep.size(); ++I)
    Want[I] = kernels::expNeg(Sweep[I]);
  kernels::expNegArray(Sweep.data(), Sweep.size(), Got.data());
  if (std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(double))) {
    std::fprintf(stderr, "FATAL: %s expNeg diverges from scalar\n",
                 kernels::activeIsaName());
    std::exit(1);
  }

  size_t N = X.size();
  std::vector<double> Out(N);
  double Libm = bestRate(N, MinMillis, [&] {
    for (size_t I = 0; I < N; ++I)
      Out[I] = X[I] > 746.0 ? 0.0 : std::exp(-X[I]);
    return Out[N / 2];
  });
  double Scalar = bestRate(N, MinMillis, [&] {
    for (size_t I = 0; I < N; ++I)
      Out[I] = kernels::expNeg(X[I]);
    return Out[N / 2];
  });
  double Dispatched = bestRate(N, MinMillis, [&] {
    kernels::expNegArray(X.data(), N, Out.data());
    return Out[N / 2];
  });
  double MaxArg = *std::max_element(X.begin(), X.end());
  std::printf("  eq1 weight e^-x over %zu exponents in [0, %.3g]: libm %5.2f "
              "| scalar %5.2f | %s %5.2f ns/arg\n",
              N, MaxArg, 1e9 / Libm, 1e9 / Scalar, kernels::activeIsaName(),
              1e9 / Dispatched);
  jsonResult("eq1_weight_libm_ns_per_arg", 1e9 / Libm);
  jsonResult("eq1_weight_scalar_ns_per_arg", 1e9 / Scalar);
  jsonResult("eq1_weight_dispatched_ns_per_arg", 1e9 / Dispatched);
}

void storePassBench(const StoreShape &Shape, size_t N, size_t Dim,
                    double MinMillis, Rng &R) {
  const size_t NumQueries = 16;
  const size_t NumBlobs = 12;
  FeatureMatrix Rows = makeBlobRows(N, Dim, NumBlobs, R);
  std::vector<int> Labels(N);
  std::vector<std::vector<double>> Scores(Shape.NumExp,
                                          std::vector<double>(N));
  for (size_t I = 0; I < N; ++I) {
    Labels[I] = static_cast<int>((I % NumBlobs) % Shape.NumLabels);
    for (std::vector<double> &Column : Scores)
      Column[I] = R.uniform(0.0, 1.0);
  }
  CalibrationStore Store;
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    E.Embed.assign(Rows.rowPtr(I), Rows.rowPtr(I) + Dim);
    E.Label = Labels[I];
    for (const std::vector<double> &Column : Scores)
      E.Scores.push_back(Column[I]);
    Store.add(std::move(E));
  }
  Store.finalize();
  PromConfig Cfg;
  Cfg.WeightMode = Shape.Mode;
  Cfg.SelectFraction = Shape.SelectFraction;
  if (Shape.SelectFraction >= 1.0)
    Cfg.SelectAllBelow = N + 1;
  std::vector<const double *> Columns;
  for (const std::vector<double> &Column : Scores)
    Columns.push_back(Column.data());
  std::vector<uint8_t> Scaling(Shape.NumExp, 0);
  size_t Stride = kernels::foldStride(Shape.NumExp);
  size_t Cells = Shape.NumLabels * Stride;
  size_t Keep = selectionKeepCount(N, Cfg);
  bool Weighted = Shape.Mode != CalibrationWeightMode::None;
  double Tau = Cfg.TauScale * Store.medianNNDist(); // AutoTau.

  // Per query: the scanned distances, the test scores and the fold inputs
  // (the cut and the WeightedCount offset come from the scalar cut).
  struct Query {
    std::vector<double> Embed, Dists, TestScores;
    kernels::FoldQuery Fold;
  };
  std::vector<Query> Queries(NumQueries);
  std::vector<kernels::SelectKey> Bucket, DispatchedBucket;
  for (Query &Q : Queries) {
    const double *Base = Rows.rowPtr(R.bounded(N));
    for (size_t D = 0; D < Dim; ++D)
      Q.Embed.push_back(Base[D] + R.gaussian(0.0, 0.5));
    Q.Dists.resize(N);
    kernels::l2Sq1xN(Q.Embed.data(), Rows.data(), N, Dim, Rows.stride(),
                     Q.Dists.data());
    Q.TestScores.assign(Cells, 0.0);
    for (size_t L = 0; L < Shape.NumLabels; ++L)
      for (size_t E = 0; E < Shape.NumExp; ++E)
        Q.TestScores[L * Stride + E] = R.uniform(0.0, 1.0);
    kernels::SelectionCut Cut =
        kernels::scalar::selectionCut(Q.Dists.data(), N, Keep, Bucket);
    kernels::SelectionCut Dispatched =
        kernels::selectionCut(Q.Dists.data(), N, Keep, DispatchedBucket);
    if (Dispatched.Cut != Cut.Cut || Dispatched.MinBits != Cut.MinBits ||
        DispatchedBucket != Bucket) {
      std::fprintf(stderr, "FATAL: %s selection cut diverges from scalar\n",
                   Shape.Name);
      std::exit(1);
    }
    double MinDist;
    std::memcpy(&MinDist, &Cut.MinBits, sizeof(MinDist));
    kernels::FoldQuery &F = Q.Fold;
    F.Dists = Q.Dists.data();
    F.Cut = Cut.Cut;
    F.Labels = Labels.data();
    F.NumLabels = Shape.NumLabels;
    F.Columns = Columns.data();
    F.Scaling = Scaling.data();
    F.NumExperts = Shape.NumExp;
    F.TestScores = Q.TestScores.data();
    F.Weighted = Weighted;
    F.Offset = Shape.Mode == CalibrationWeightMode::WeightedCount
                   ? std::sqrt(MinDist)
                   : 0.0;
    F.Tau = Tau;
  }

  // The fold of one query over every canonical block, into fresh sums.
  std::vector<double> GE(Cells), Tot(Cells), Cnt(Shape.NumLabels);
  auto FoldAll = [&](const kernels::FoldQuery &F, auto Fold) {
    std::fill(GE.begin(), GE.end(), 0.0);
    std::fill(Tot.begin(), Tot.end(), 0.0);
    std::fill(Cnt.begin(), Cnt.end(), 0.0);
    for (size_t B0 = 0; B0 < N; B0 += CalibrationAccumBlock)
      Fold(F, B0, std::min(N, B0 + CalibrationAccumBlock), GE.data(),
           Tot.data(), Cnt.data());
    return GE[0] + Tot[0];
  };
  for (const Query &Q : Queries) {
    FoldAll(Q.Fold, kernels::scalar::foldBlock);
    std::vector<double> Want = GE;
    Want.insert(Want.end(), Tot.begin(), Tot.end());
    Want.insert(Want.end(), Cnt.begin(), Cnt.end());
    FoldAll(Q.Fold, kernels::foldBlock);
    std::vector<double> Got = GE;
    Got.insert(Got.end(), Tot.begin(), Tot.end());
    Got.insert(Got.end(), Cnt.begin(), Cnt.end());
    if (std::memcmp(Got.data(), Want.data(), Got.size() * sizeof(double))) {
      std::fprintf(stderr, "FATAL: %s Eq. (2) fold diverges from scalar\n",
                   Shape.Name);
      std::exit(1);
    }
  }

  using Clock = std::chrono::steady_clock;
  auto BestPerQueryUs = [&](auto &&Body) {
    double Best = 1e300, SpentMs = 0.0;
    do {
      Clock::time_point T0 = Clock::now();
      for (const Query &Q : Queries)
        SinkAccum += Body(Q);
      double Ms =
          std::chrono::duration<double, std::milli>(Clock::now() - T0)
              .count();
      SpentMs += Ms;
      Best = std::min(Best, Ms * 1e3 / static_cast<double>(NumQueries));
    } while (SpentMs < MinMillis);
    return Best;
  };
  double CutScalar = BestPerQueryUs([&](const Query &Q) {
    return static_cast<double>(
        kernels::scalar::selectionCut(Q.Dists.data(), N, Keep, Bucket)
            .Cut.second);
  });
  double CutDispatched = BestPerQueryUs([&](const Query &Q) {
    return static_cast<double>(
        kernels::selectionCut(Q.Dists.data(), N, Keep, Bucket).Cut.second);
  });
  double FoldScalar = BestPerQueryUs([&](const Query &Q) {
    return FoldAll(Q.Fold, kernels::scalar::foldBlock);
  });
  double FoldDispatched = BestPerQueryUs(
      [&](const Query &Q) { return FoldAll(Q.Fold, kernels::foldBlock); });

  // The whole store pass through the public API: distance scan, cut and
  // fold, plus the engine's own set-up around them.
  AssessmentScratch Scratch;
  std::vector<double> TestScores(Shape.NumExp * Shape.NumLabels);
  for (double &T : TestScores)
    T = R.uniform(0.0, 1.0);
  std::vector<double> PVals(TestScores.size());
  double StorePass = BestPerQueryUs([&](const Query &Q) {
    Store.selectForAssessment(Q.Embed.data(), Cfg, Scratch);
    Store.pValuesAllExperts(Scratch, TestScores.data(), Shape.NumLabels, Cfg,
                            nullptr, PVals.data());
    return PVals[0];
  });

  std::printf("  %-8s: cut scalar %6.1f | %s %6.1f us/query | fold scalar "
              "%6.1f | %s %6.1f us/query | store pass %6.1f us/query\n",
              Shape.Name, CutScalar, kernels::activeIsaName(), CutDispatched,
              FoldScalar, kernels::activeIsaName(), FoldDispatched,
              StorePass);
  std::string Tag = std::string("store_") + Shape.Name + "_n" +
                    std::to_string(N);
  jsonResult(Tag + "_cut_scalar_us", CutScalar);
  jsonResult(Tag + "_cut_dispatched_us", CutDispatched);
  jsonResult(Tag + "_fold_scalar_us", FoldScalar);
  jsonResult(Tag + "_fold_dispatched_us", FoldDispatched);
  jsonResult(Tag + "_pass_us", StorePass);

  if (!Weighted)
    return;
  // The exponents the fold weighs: every query's selected entries.
  std::vector<double> Exponents;
  for (const Query &Q : Queries)
    for (size_t I = 0; I < N; ++I) {
      const kernels::FoldQuery &F = Q.Fold;
      if (kernels::SelectKey(kernels::keyBits(F.Dists[I]),
                             static_cast<uint32_t>(I)) > F.Cut)
        continue;
      double D = std::max(0.0, std::sqrt(F.Dists[I]) - F.Offset);
      Exponents.push_back((F.NormPower == 2 ? D * D : D) / F.Tau);
    }
  expBench(Exponents, MinMillis, R);
}

} // namespace

int main(int argc, char **argv) {
  bool Ci = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--ci") == 0)
      Ci = true;
  double MinMillis = Ci ? 60.0 : 250.0;

  std::printf("kernel_bench: dispatched ISA = %s\n",
              kernels::activeIsaName());
  jsonResult("avx2_active", kernels::avx2Active() ? 1.0 : 0.0);

  Rng R(20250301);
  for (size_t N : {1000u, 10000u, 100000u})
    scanBench(N, /*Dim=*/64, MinMillis, R);

  // The MLP hidden layer and classifier-head shapes of the batched
  // forwards (batch x in x out).
  matmulBench(512, 64, 64, MinMillis, R);
  matmulBench(512, 64, 8, MinMillis, R);

  clusterScanStudy(MinMillis, R);

  // engine_10k's store (16-d, default committee, 6 labels, WeightedCount
  // over 50%) and the baselines' (1 expert, unweighted, full selection).
  std::printf("\ncalibration-store passes after the distance scan "
              "(10^4 entries, 16-d)\n");
  const StoreShape Shapes[] = {
      {"engine", 4, 6, CalibrationWeightMode::WeightedCount, 0.5},
      {"baseline", 1, 6, CalibrationWeightMode::None, 1.0}};
  for (const StoreShape &Shape : Shapes)
    storePassBench(Shape, 10000, 16, MinMillis, R);

  regressorKnnBench(MinMillis);

  if (SinkAccum == 12345.6789) // Never true; keeps the sink observable.
    std::printf("sink %f\n", SinkAccum);
  return 0;
}
