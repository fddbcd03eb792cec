//===- tests/StoreTestHelpers.h - CalibrationStore test oracles ---*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared oracles of the CalibrationStore bit-identity suites (RefreshTest
/// and the randomized StorePropertyTest): synthetic entry builders, the
/// from-scratch reference store, the exhaustive engine-level comparison
/// that drives both stores through the exact entry points the batched
/// assessment uses, and the exact-scan check of the nearest-rows query;
/// plus the engine p-value call the p-value semantics suites
/// (NonconformityTest, ScorerEdgeCaseTest) assert on.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_TESTS_STORETESTHELPERS_H
#define PROM_TESTS_STORETESTHELPERS_H

#include "core/CalibrationStore.h"
#include "core/PromConfig.h"
#include "support/Distance.h"
#include "support/Rng.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace prom {
namespace testing {

/// Random calibration entries; labels cycle over [0, NumLabels).
inline std::vector<CalibrationEntry> makeEntries(size_t N, size_t Dim,
                                                 int NumLabels, size_t NumExp,
                                                 support::Rng &R) {
  std::vector<CalibrationEntry> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    CalibrationEntry E;
    for (size_t D = 0; D < Dim; ++D)
      E.Embed.push_back(R.gaussian(0.0, 2.0));
    E.Label = static_cast<int>(I % static_cast<size_t>(NumLabels));
    for (size_t X = 0; X < NumExp; ++X)
      E.Scores.push_back(R.uniform(0.0, 1.0));
    Out.push_back(std::move(E));
  }
  return Out;
}

/// A fresh store finalized from scratch on \p Entries — the reference a
/// refreshed store must match bit for bit.
inline CalibrationStore
referenceStore(const std::vector<CalibrationEntry> &Entries) {
  CalibrationStore Ref;
  Ref.reserve(Entries.size());
  for (const CalibrationEntry &E : Entries)
    Ref.add(E);
  Ref.finalize();
  return Ref;
}

/// Largest live label of \p Store (-1 when it holds no live entry).
inline int maxLiveLabel(const CalibrationStore &Store) {
  int Max = -1;
  for (size_t I = 0; I < Store.size() - Store.stagedEntries(); ++I)
    Max = std::max(Max, Store.label(I));
  return Max;
}

/// Expects the same Eq. (1) parameters in two selections, bit for bit.
inline void expectSameWeightParameters(const AssessmentScratch &A,
                                       const AssessmentScratch &B) {
  EXPECT_EQ(A.Weighted, B.Weighted);
  EXPECT_EQ(bits(A.Offset), bits(B.Offset));
  EXPECT_EQ(bits(A.Tau), bits(B.Tau));
  EXPECT_EQ(A.NormPower, B.NormPower);
}

/// Drives both stores through the exact engine entry points the batched
/// assessment uses (selection + fused all-expert p-values) and demands
/// bit-equality on everything a verdict is computed from.
inline void expectStoresBitIdentical(const CalibrationStore &Live,
                                     const CalibrationStore &Ref,
                                     const PromConfig &Cfg, support::Rng &R,
                                     const char *Tag) {
  SCOPED_TRACE(Tag);
  ASSERT_EQ(Live.size(), Ref.size());
  ASSERT_EQ(Live.embedDim(), Ref.embedDim());
  EXPECT_EQ(bits(Live.medianNNDist()), bits(Ref.medianNNDist()));

  size_t NumExp = Ref.numExperts();
  size_t NumLabels = static_cast<size_t>(maxLiveLabel(Ref) + 1);
  ASSERT_EQ(static_cast<size_t>(maxLiveLabel(Live) + 1), NumLabels);
  size_t Cells = NumExp * NumLabels;

  AssessmentScratch SLive, SRef;
  std::vector<double> TestScores(Cells), PLive(Cells), PRef(Cells);
  for (int Q = 0; Q < 6; ++Q) {
    SCOPED_TRACE("query " + std::to_string(Q));
    std::vector<double> Query;
    for (size_t D = 0; D < Ref.embedDim(); ++D)
      Query.push_back(R.gaussian(0.0, 2.0));
    for (double &S : TestScores)
      S = R.uniform(0.0, 1.0);

    Live.selectForAssessment(Query.data(), Cfg, SLive);
    Ref.selectForAssessment(Query.data(), Cfg, SRef);
    ASSERT_EQ(SLive.Keep, SRef.Keep);
    expectSameWeightParameters(SLive, SRef);
    for (size_t I = 0; I < Ref.size(); ++I) {
      ASSERT_EQ(SLive.selected(I), SRef.selected(I)) << "entry " << I;
      // A selected entry's weight is a pure function of its distance and
      // the parameters above.
      if (SRef.selected(I)) {
        ASSERT_EQ(bits(SLive.Dists[I]), bits(SRef.Dists[I]))
            << "entry " << I;
      }
    }

    Live.pValuesAllExperts(SLive, TestScores.data(), NumLabels, Cfg,
                           /*DiscreteFlags=*/nullptr, PLive.data());
    Ref.pValuesAllExperts(SRef, TestScores.data(), NumLabels, Cfg,
                          /*DiscreteFlags=*/nullptr, PRef.data());
    for (size_t C = 0; C < Cells; ++C)
      ASSERT_EQ(bits(PLive[C]), bits(PRef[C])) << "cell " << C;
  }
}

/// Expects CalibrationStore::nearestRows() for \p Query and \p K to leave
/// the first min(K, size) keys of a key-sorted exact scan of \p Store's
/// live rows, the K-th of them at position K - 1.
inline void expectNearestRowsMatchExactScan(const CalibrationStore &Store,
                                            const double *Query, size_t K) {
  SCOPED_TRACE("nearestRows K = " + std::to_string(K));
  using support::kernels::SelectKey;
  const support::FeatureMatrix &Rows = Store.embedMatrix();
  std::vector<SelectKey> Exact;
  for (size_t I = 0; I < Rows.rows(); ++I)
    Exact.emplace_back(support::kernels::keyBits(support::squaredEuclidean(
                           Rows.rowPtr(I), Query, Rows.dim())),
                       static_cast<uint32_t>(I));
  std::sort(Exact.begin(), Exact.end());
  Exact.resize(std::min(K, Exact.size()));

  AssessmentScratch S;
  Store.nearestRows(Query, K, S);
  std::vector<SelectKey> Got = S.Candidates;
  ASSERT_EQ(Got.size(), Exact.size());
  if (!Got.empty()) {
    EXPECT_EQ(Got.back(), Exact.back());
  }
  std::sort(Got.begin(), Got.end());
  EXPECT_EQ(Got, Exact);
}

/// The engine's p-values (selectForAssessment + pValuesAllExperts) of a
/// one-expert store of 1-D embeddings for the test embedding \p X, one
/// label per test score.
inline std::vector<double> enginePValues(const CalibrationStore &Store,
                                         double X,
                                         const std::vector<double> &TestScores,
                                         const PromConfig &Cfg,
                                         bool DiscreteScores = false) {
  AssessmentScratch S;
  Store.selectForAssessment(&X, Cfg, S);
  uint8_t Discrete = DiscreteScores ? 1 : 0;
  std::vector<double> P(TestScores.size());
  Store.pValuesAllExperts(S, TestScores.data(), TestScores.size(), Cfg,
                          &Discrete, P.data());
  return P;
}

/// Runs the comparison under two regimes of the canonical block fold: the
/// default weighted partial selection, and unweighted counting over the
/// full selection (the configuration of the naive-CP baselines).
inline void expectBothRegimesMatch(const CalibrationStore &Live,
                                   const CalibrationStore &Ref,
                                   uint64_t Seed, const char *Tag) {
  PromConfig Weighted; // Default: WeightedCount, partial selection.
  support::Rng R1(Seed);
  expectStoresBitIdentical(Live, Ref, Weighted, R1,
                           (std::string(Tag) + "/weighted").c_str());

  PromConfig Unweighted;
  Unweighted.WeightMode = CalibrationWeightMode::None;
  Unweighted.SelectAllBelow = 1u << 20; // Full selection.
  support::Rng R2(Seed);
  expectStoresBitIdentical(Live, Ref, Unweighted, R2,
                           (std::string(Tag) + "/unweighted-full").c_str());
}

} // namespace testing
} // namespace prom

#endif // PROM_TESTS_STORETESTHELPERS_H
