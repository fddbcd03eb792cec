//===- tests/StorePropertyTest.cpp - randomized store lifecycle fuzzing -------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Randomized property test for the CalibrationStore lifecycle: a random
// interleaving of appendEntries()+refinalize(), appendEntries()+
// refinalizeFull(), and eviction-bound changes must leave the
// store bit-identical — through the exact engine entry points the batched
// assessment uses — to a brand-new store finalized from scratch on the
// mirrored surviving entries. This is the generalization of RefreshTest's
// hand-picked scenarios: whatever sequence deployment throws at the store,
// the incremental indexes may never drift from the rebuild semantics. The
// pruned program also checks the nearest-rows query against an exact scan
// after every step.
//
// Every program is seeded and the failing seed is printed on mismatch;
// replay one seed with PROM_STORE_PROP_SEED=<seed> (runs in addition to
// the fixed sweep).
//
//===----------------------------------------------------------------------===//

#include "tests/StoreTestHelpers.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

using namespace prom;
using prom::testing::expectBothRegimesMatch;
using prom::testing::expectNearestRowsMatchExactScan;
using prom::testing::makeEntries;
using prom::testing::referenceStore;

namespace {

constexpr size_t Dim = 5;
constexpr int NumLabels = 3;
constexpr size_t NumExperts = 2;

/// Applies the refinalize() eviction contract to the mirror: oldest-first
/// down to \p MaxEntries (0 = unbounded).
void applyEviction(std::vector<CalibrationEntry> &Mirror, size_t MaxEntries) {
  if (MaxEntries > 0 && Mirror.size() > MaxEntries)
    Mirror.erase(Mirror.begin(),
                 Mirror.begin() +
                     static_cast<long>(Mirror.size() - MaxEntries));
}

/// One random store program: ~12 lifecycle operations with a from-scratch
/// comparison every third step and at the end.
void runRandomProgram(uint64_t Seed) {
  SCOPED_TRACE("failure seed " + std::to_string(Seed) +
               " (replay: PROM_STORE_PROP_SEED=" + std::to_string(Seed) +
               ")");
  support::Rng R(Seed);

  std::vector<CalibrationEntry> Mirror =
      makeEntries(200 + R.bounded(400), Dim, NumLabels, NumExperts, R);
  CalibrationStore Live;
  Live.reserve(Mirror.size());
  for (const CalibrationEntry &E : Mirror)
    Live.add(E);
  Live.finalize();
  size_t MaxEntries = 0;

  const int NumOps = 12;
  for (int Op = 0; Op < NumOps; ++Op) {
    SCOPED_TRACE("op " + std::to_string(Op));
    switch (R.bounded(4)) {
    case 0:   // Incremental refresh, small batch.
    case 1: { // (Twice as likely: the workhorse operation.)
      std::vector<CalibrationEntry> Fresh =
          makeEntries(1 + R.bounded(300), Dim, NumLabels, NumExperts, R);
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 2: { // Full-rebuild refresh on the same staged-entry semantics.
      std::vector<CalibrationEntry> Fresh =
          makeEntries(1 + R.bounded(128), Dim, NumLabels, NumExperts, R);
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalizeFull();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 3: { // Move the eviction bound (applies on the next refinalize).
      MaxEntries = R.bounded(3) == 0 ? 0 : 128 + R.bounded(512);
      Live.setMaxEntries(MaxEntries);
      break;
    }
    }

    if (Op % 3 == 2 || Op == NumOps - 1) {
      CalibrationStore Ref = referenceStore(Mirror);
      expectBothRegimesMatch(Live, Ref, Seed ^ static_cast<uint64_t>(Op),
                             ("after op " + std::to_string(Op)).c_str());
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "store property violated; failure seed " << Seed
                      << " — replay with PROM_STORE_PROP_SEED=" << Seed;
        return;
      }
    }
  }
}

/// Entries whose embeddings live on a tiny integer grid: exact duplicate
/// embeddings and exact distance ties abound — the adversarial input for
/// the pruned scan's tie-break safety.
std::vector<CalibrationEntry> makeTieHeavyEntries(size_t N, size_t Dim,
                                                  support::Rng &R) {
  std::vector<CalibrationEntry> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed.push_back(static_cast<double>(R.bounded(3)));
    E.Label = static_cast<int>(I % static_cast<size_t>(NumLabels));
    for (size_t X = 0; X < NumExperts; ++X)
      E.Scores.push_back(R.uniform(0.0, 1.0));
    Out.push_back(std::move(E));
  }
  return Out;
}

/// Random store program with the cluster-pruned scan forced on: the live
/// store carries an aggressive index policy (a low MinEntries, random
/// centroid counts and staleness bounds) through a random lifecycle, while
/// the reference store keeps the store-default policy (disabled, exact
/// flat scan). The two must agree bit for bit on every selection and
/// p-value — the losslessness property, randomized over dims,
/// duplicate/tie-heavy embeddings, and mutation interleavings.
void runPrunedProgram(uint64_t Seed) {
  SCOPED_TRACE("failure seed " + std::to_string(Seed) +
               " (replay: PROM_STORE_PROP_SEED=" + std::to_string(Seed) +
               ")");
  support::Rng R(Seed);

  size_t PDim = 3 + R.bounded(9);
  bool TieHeavy = R.bounded(2) == 0;
  auto Make = [&](size_t N) {
    return TieHeavy ? makeTieHeavyEntries(N, PDim, R)
                    : makeEntries(N, PDim, NumLabels, NumExperts, R);
  };

  std::vector<CalibrationEntry> Mirror = Make(300 + R.bounded(500));
  CalibrationStore Live;
  Live.reserve(Mirror.size());
  for (const CalibrationEntry &E : Mirror)
    Live.add(E);

  ClusterIndexPolicy Policy;
  Policy.Enabled = true;
  Policy.MinEntries = 1 + R.bounded(256);
  Policy.NumCentroids = R.bounded(2) == 0 ? 0 : 4 + R.bounded(28);
  Policy.MaxStaleFraction = 0.05 + 0.2 * R.uniform();
  // The default-config regime selects 50% — keep the pruned path routed
  // (the production MaxSelectFraction bound is a perf heuristic, not a
  // correctness one, and this test is about correctness).
  Policy.MaxSelectFraction = 1.0;
  Live.setIndexPolicy(Policy);
  Live.finalize();
  ASSERT_TRUE(Live.indexed()) << "policy did not index the store";
  size_t MaxEntries = 0;

  const int NumOps = 10;
  for (int Op = 0; Op < NumOps; ++Op) {
    SCOPED_TRACE("op " + std::to_string(Op));
    switch (R.bounded(5)) {
    case 0:   // Incremental refresh: exercises stale-tail exact scans.
    case 1: {
      std::vector<CalibrationEntry> Fresh = Make(1 + R.bounded(300));
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalize();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 2: { // Full rebuild (the index rebuilt wholesale).
      std::vector<CalibrationEntry> Fresh = Make(1 + R.bounded(128));
      Mirror.insert(Mirror.end(), Fresh.begin(), Fresh.end());
      Live.appendEntries(std::move(Fresh));
      Live.refinalizeFull();
      applyEviction(Mirror, MaxEntries);
      break;
    }
    case 3: { // Eviction bound (kept >= 256 so selections stay proper).
      MaxEntries = R.bounded(3) == 0 ? 0 : 256 + R.bounded(512);
      Live.setMaxEntries(MaxEntries);
      break;
    }
    case 4: { // Policy change mid-flight: re-index under new knobs.
      Policy.MinEntries = 1 + R.bounded(256);
      Policy.MaxStaleFraction = 0.05 + 0.2 * R.uniform();
      Live.setIndexPolicy(Policy);
      break;
    }
    }

    // The nearest-rows query in whatever stale-tail state the step left,
    // for a random K and for a small one (K <= 64); the
    // unindexed reference store answers it at every comparison. Its own
    // generator leaves the program's sequence as it was.
    support::Rng QR(Seed ^ (0x51ED27ull * static_cast<uint64_t>(Op + 1)));
    std::vector<double> Query(Live.embedDim());
    for (double &V : Query)
      V = QR.gaussian(0.0, 2.0);
    size_t AnyK = 1 + QR.bounded(Live.size());
    size_t SmallK = 1 + QR.bounded(std::min<size_t>(Live.size(), 64));
    expectNearestRowsMatchExactScan(Live, Query.data(), AnyK);
    expectNearestRowsMatchExactScan(Live, Query.data(), SmallK);

    if (Op % 3 == 2 || Op == NumOps - 1) {
      CalibrationStore Ref = referenceStore(Mirror);
      expectNearestRowsMatchExactScan(Ref, Query.data(), AnyK);
      expectNearestRowsMatchExactScan(Ref, Query.data(), SmallK);
      expectBothRegimesMatch(Live, Ref, Seed ^ static_cast<uint64_t>(Op),
                             ("after op " + std::to_string(Op)).c_str());
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "pruned-store property violated; failure seed "
                      << Seed << " — replay with PROM_STORE_PROP_SEED="
                      << Seed;
        return;
      }
    }
  }

  // The program must have ended with the pruned path actually serving
  // (guards against silently falling back to the exact scan forever).
  if (Live.indexed() &&
      selectionKeepCount(Live.size(), PromConfig()) < Live.size()) {
    AssessmentScratch S;
    PromConfig Cfg;
    std::vector<double> Query(Live.embedDim());
    for (double &V : Query)
      V = R.gaussian(0.0, 2.0);
    Live.selectForAssessment(Query.data(), Cfg, S);
    EXPECT_NE(S.Pruned.ListsTotal, 0u);
    EXPECT_EQ(S.Pruned.RowsTotal, Live.size());
    EXPECT_GT(S.Pruned.RowsScanned, 0u);
    EXPECT_LE(S.Pruned.RowsScanned, S.Pruned.RowsTotal);
    EXPECT_LE(S.Pruned.ListsScanned, S.Pruned.ListsTotal);
  }
}

} // namespace

TEST(StorePropertyTest, RandomLifecyclesMatchFromScratchRebuild) {
  for (uint64_t Seed : {20260701ull, 20260702ull, 20260703ull, 20260704ull,
                        20260705ull, 20260706ull})
    runRandomProgram(Seed);
}

TEST(StorePropertyTest, PrunedLifecyclesMatchExactScan) {
  for (uint64_t Seed : {20260801ull, 20260802ull, 20260803ull, 20260804ull,
                        20260805ull, 20260806ull, 20260807ull, 20260808ull})
    runPrunedProgram(Seed);
}

TEST(StorePropertyTest, ReplaySeedFromEnvironment) {
  // Developer loop: PROM_STORE_PROP_SEED=<n> re-runs exactly the program a
  // failure named. A no-op when the variable is unset.
  const char *Env = std::getenv("PROM_STORE_PROP_SEED");
  if (!Env)
    GTEST_SKIP() << "PROM_STORE_PROP_SEED not set";
  uint64_t Seed = std::strtoull(Env, nullptr, 10);
  runRandomProgram(Seed);
  runPrunedProgram(Seed);
}
