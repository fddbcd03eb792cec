//===- tests/DriftAttributionTest.cpp - drift attribution layer ---------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The statistical test harness of the drift stack. The detectors are
// checked against straightforward reference implementations on seeded
// synthetic streams (Welford vs a naive two-pass pass, Page-Hinkley and
// CUSUM vs textbook recursions), with pinned detection-delay and
// false-alarm bounds on the shared drift-stream generator; the top-k
// attribution report must name the truly perturbed dimensions with ties
// broken deterministically; the WindowedDriftMonitor is property-tested
// against a naive ring-buffer reference under randomized operation
// interleavings (replayable via PROM_DRIFT_PROP_SEED); and attribution
// must be strictly observe-only — served verdicts bit-identical with the
// sink attached or not.
//
//===----------------------------------------------------------------------===//

#include "data/Split.h"
#include "ml/Linear.h"
#include "serve/AssessmentService.h"
#include "serve/DriftAttribution.h"
#include "serve/RecalibrationController.h"
#include "serve/WindowedDriftMonitor.h"
#include "tests/StreamTestHelpers.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>

using namespace prom;
using namespace prom::serve;
using prom::testing::bits;
using prom::testing::DriftObservation;
using prom::testing::DriftShape;
using prom::testing::DriftStreamGenerator;
using prom::testing::DriftStreamSpec;
using prom::testing::envSeedOr;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;

namespace {

/// The attribution config shared by the synthetic-stream tests: windows
/// sized so drift starting at observation 1024 lands 512 observations
/// into the tracking phase.
DriftAttributionConfig streamAttrConfig() {
  DriftAttributionConfig C;
  C.ReferenceWindow = 512;
  C.CurrentWindow = 64;
  C.MinCurrent = 32;
  C.TopK = 8;
  C.ZThreshold = 3.0;
  return C;
}

/// The drift-stream spec shared by the detection tests (three of sixteen
/// dimensions drift by four reference sigmas).
DriftStreamSpec streamSpec(DriftShape Shape) {
  DriftStreamSpec S;
  S.Dims = 16;
  S.PerturbedDims = {2, 7, 13};
  S.Shape = Shape;
  S.DriftStart = 1024;
  S.Magnitude = 4.0;
  S.RampLength = 512;
  S.Period = 256;
  S.Seed = 20250401;
  return S;
}

Verdict fakeVerdict(bool Drifted) {
  Verdict V;
  V.Predicted = 0;
  V.Drifted = Drifted;
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Welford vs naive two-pass reference
//===----------------------------------------------------------------------===//

TEST(DriftAttributionTest, WelfordMatchesTwoPassReference) {
  support::Rng R(11);
  std::vector<double> Xs;
  WelfordAccumulator W;
  for (int I = 0; I < 10000; ++I) {
    // A deliberately badly conditioned stream: large offset, small spread
    // — where the naive sum-of-squares formula loses digits and Welford
    // must not.
    double X = 1e6 + R.gaussian(0.0, 0.5) + (I % 7 == 0 ? 3.0 : 0.0);
    Xs.push_back(X);
    W.add(X);
  }
  ASSERT_EQ(W.Count, Xs.size());

  // Two-pass reference: exact mean first, then centered squares.
  double Sum = 0.0;
  for (double X : Xs)
    Sum += X;
  double Mean = Sum / static_cast<double>(Xs.size());
  double Sq = 0.0;
  for (double X : Xs)
    Sq += (X - Mean) * (X - Mean);
  double Var = Sq / static_cast<double>(Xs.size() - 1);

  EXPECT_NEAR(W.Mean, Mean, std::fabs(Mean) * 1e-12);
  EXPECT_NEAR(W.variance(), Var, Var * 1e-9);
}

TEST(DriftAttributionTest, WelfordMergeMatchesSequentialFold) {
  support::Rng R(12);
  WelfordAccumulator Whole, Left, Right;
  for (int I = 0; I < 5000; ++I) {
    double X = R.gaussian(3.0, 2.0);
    Whole.add(X);
    (I < 1237 ? Left : Right).add(X); // Uneven split on purpose.
  }
  Left.merge(Right);
  EXPECT_EQ(Left.Count, Whole.Count);
  EXPECT_NEAR(Left.Mean, Whole.Mean, std::fabs(Whole.Mean) * 1e-12);
  EXPECT_NEAR(Left.variance(), Whole.variance(), Whole.variance() * 1e-10);

  // Merging into an empty accumulator is a copy; merging an empty one is
  // a no-op.
  WelfordAccumulator Empty;
  Empty.merge(Whole);
  EXPECT_EQ(bits(Empty.Mean), bits(Whole.Mean));
  EXPECT_EQ(bits(Empty.M2), bits(Whole.M2));
  Whole.merge(WelfordAccumulator());
  EXPECT_EQ(bits(Empty.Mean), bits(Whole.Mean));
}

//===----------------------------------------------------------------------===//
// Page-Hinkley vs a textbook reference
//===----------------------------------------------------------------------===//

namespace {

/// Straightforward Page-Hinkley: running mean via an explicit sum, the
/// two-sided cumulative deviations per the textbook recursion.
struct ReferencePH {
  double Sum = 0.0;
  uint64_t N = 0;
  double CumUp = 0.0, MinUp = 0.0, CumDown = 0.0, MaxDown = 0.0;
  bool Alarm = false;
  uint64_t AlarmAt = 0;

  void step(double X, const PageHinkleyConfig &C) {
    Sum += X;
    ++N;
    double Mean = Sum / static_cast<double>(N);
    CumUp += X - Mean - C.Delta;
    MinUp = std::min(MinUp, CumUp);
    CumDown += X - Mean + C.Delta;
    MaxDown = std::max(MaxDown, CumDown);
    if (!Alarm && N >= C.MinSamples &&
        (CumUp - MinUp > C.Lambda || MaxDown - CumDown > C.Lambda)) {
      Alarm = true;
      AlarmAt = N;
    }
  }
  double score() const {
    return std::max(CumUp - MinUp, MaxDown - CumDown);
  }
};

} // namespace

TEST(DriftAttributionTest, PageHinkleyMatchesReferenceOnSeededStreams) {
  PageHinkleyConfig Cfg; // Library defaults (z-scaled streams).
  // No-drift stream: neither implementation may alarm.
  {
    support::Rng R(21);
    PageHinkleyState S;
    ReferencePH Ref;
    for (int I = 0; I < 4000; ++I) {
      double X = R.gaussian(0.0, 1.0);
      S.update(X, Cfg);
      Ref.step(X, Cfg);
      ASSERT_EQ(S.Alarm, Ref.Alarm) << "step " << I;
      ASSERT_NEAR(S.score(), Ref.score(), 1e-6) << "step " << I;
    }
    EXPECT_FALSE(S.Alarm);
  }
  // Step stream: both alarm, at the same step, shortly after the shift.
  {
    support::Rng R(22);
    PageHinkleyState S;
    ReferencePH Ref;
    for (int I = 0; I < 2000; ++I) {
      double X = R.gaussian(I < 1000 ? 0.0 : 4.0, 1.0);
      S.update(X, Cfg);
      Ref.step(X, Cfg);
      ASSERT_EQ(S.Alarm, Ref.Alarm) << "step " << I;
    }
    EXPECT_TRUE(S.Alarm);
    EXPECT_EQ(S.AlarmAt, Ref.AlarmAt);
    EXPECT_GT(S.AlarmAt, 1000u);
    EXPECT_LE(S.AlarmAt, 1000u + 64u); // Pinned detection delay.
  }
  // Downward step: the two-sided detector catches drops too.
  {
    support::Rng R(23);
    PageHinkleyState S;
    ReferencePH Ref;
    for (int I = 0; I < 2000; ++I) {
      double X = R.gaussian(I < 1000 ? 0.0 : -4.0, 1.0);
      S.update(X, Cfg);
      Ref.step(X, Cfg);
    }
    EXPECT_TRUE(S.Alarm);
    EXPECT_EQ(S.AlarmAt, Ref.AlarmAt);
    EXPECT_LE(S.AlarmAt, 1000u + 64u);
  }
}

//===----------------------------------------------------------------------===//
// CUSUM vs a textbook reference
//===----------------------------------------------------------------------===//

namespace {

/// Straightforward tabular CUSUM recursion against a fixed target.
struct ReferenceCusum {
  double Target = 0.0, Pos = 0.0, Neg = 0.0;
  uint64_t N = 0;
  bool Alarm = false;
  uint64_t AlarmAt = 0;

  void step(double X, const CUSUMConfig &C) {
    ++N;
    Pos = std::max(0.0, Pos + X - Target - C.Allowance);
    Neg = std::max(0.0, Neg + Target - X - C.Allowance);
    if (!Alarm && N >= C.MinSamples &&
        (Pos > C.Threshold || Neg > C.Threshold)) {
      Alarm = true;
      AlarmAt = N;
    }
  }
};

} // namespace

TEST(DriftAttributionTest, CusumMatchesReferenceOnSeededStreams) {
  CUSUMConfig Cfg; // Library defaults (z-scaled streams).
  // No drift: zero false alarms at the default threshold.
  {
    support::Rng R(31);
    CUSUMState S;
    S.reset(0.0);
    ReferenceCusum Ref;
    for (int I = 0; I < 6000; ++I) {
      double X = R.gaussian(0.0, 1.0);
      S.update(X, Cfg);
      Ref.step(X, Cfg);
      ASSERT_EQ(S.Alarm, Ref.Alarm) << "step " << I;
      ASSERT_NEAR(S.score(), std::max(Ref.Pos, Ref.Neg), 1e-9)
          << "step " << I;
    }
    EXPECT_FALSE(S.Alarm);
  }
  // Step up and step down: detection within a pinned delay, same step as
  // the reference.
  for (double Shift : {4.0, -4.0}) {
    support::Rng R(32);
    CUSUMState S;
    S.reset(0.0);
    ReferenceCusum Ref;
    for (int I = 0; I < 1200; ++I) {
      double X = R.gaussian(I < 1000 ? 0.0 : Shift, 1.0);
      S.update(X, Cfg);
      Ref.step(X, Cfg);
    }
    EXPECT_TRUE(S.Alarm) << "shift " << Shift;
    EXPECT_EQ(S.AlarmAt, Ref.AlarmAt);
    EXPECT_GT(S.AlarmAt, 1000u);
    EXPECT_LE(S.AlarmAt, 1000u + 16u); // Pinned detection delay.
  }
}

//===----------------------------------------------------------------------===//
// The attribution layer on the shared synthetic streams
//===----------------------------------------------------------------------===//

TEST(DriftAttributionTest, NoDriftStreamRaisesNoAlarms) {
  DriftStreamGenerator Gen(streamSpec(DriftShape::None));
  DriftAttribution Attr(streamAttrConfig());
  for (int I = 0; I < 2048; ++I) {
    DriftObservation Obs = Gen.next();
    Attr.observe(Obs.Features, Obs.Rejected);
  }
  ASSERT_TRUE(Attr.referenceReady());
  DriftAttributionReport R = Attr.report();
  EXPECT_EQ(R.Dims, 16u);
  EXPECT_EQ(R.DriftedDims, 0u);
  EXPECT_EQ(R.PageHinkleyDims, 0u);
  EXPECT_EQ(R.CusumDims, 0u);
  EXPECT_FALSE(R.RejectPageHinkley);
  EXPECT_FALSE(R.RejectCusum);
  EXPECT_EQ(R.Excursions, 0u);
  EXPECT_EQ(R.Type, DriftType::None);
  EXPECT_LT(R.MaxAbsZ, 1.0);
}

TEST(DriftAttributionTest, SuddenStepDetectedWithinPinnedDelayAndAttributed) {
  DriftStreamSpec Spec = streamSpec(DriftShape::Sudden);
  DriftStreamGenerator Gen(Spec);
  DriftAttribution Attr(streamAttrConfig());

  size_t FirstCusum = 0, FirstPH = 0, FirstAttr = 0, FirstRejCusum = 0;
  for (size_t I = 0; I < 2048; ++I) {
    DriftObservation Obs = Gen.next();
    Attr.observe(Obs.Features, Obs.Rejected);
    DriftAttributionReport R = Attr.report();
    if (FirstCusum == 0 && R.CusumDims >= 3)
      FirstCusum = I;
    if (FirstPH == 0 && R.PageHinkleyDims >= 3)
      FirstPH = I;
    if (FirstAttr == 0 && R.DriftedDims >= 3)
      FirstAttr = I;
    if (FirstRejCusum == 0 && R.RejectCusum)
      FirstRejCusum = I;
  }

  // Pinned detection delays past the drift onset at observation 1024.
  ASSERT_NE(FirstCusum, 0u);
  EXPECT_GE(FirstCusum, Spec.DriftStart);
  EXPECT_LE(FirstCusum, Spec.DriftStart + 16);
  ASSERT_NE(FirstPH, 0u);
  EXPECT_GE(FirstPH, Spec.DriftStart);
  EXPECT_LE(FirstPH, Spec.DriftStart + 64);
  ASSERT_NE(FirstAttr, 0u);
  EXPECT_GE(FirstAttr, Spec.DriftStart);
  EXPECT_LE(FirstAttr, Spec.DriftStart + 192);
  ASSERT_NE(FirstRejCusum, 0u);
  EXPECT_GE(FirstRejCusum, Spec.DriftStart);
  EXPECT_LE(FirstRejCusum, Spec.DriftStart + 96);

  // The final report names exactly the truly perturbed dimensions, in
  // the top slots, and classifies the shape as sudden.
  DriftAttributionReport R = Attr.report();
  EXPECT_EQ(R.DriftedDims, 3u);
  ASSERT_GE(R.Top.size(), 3u);
  std::vector<size_t> Top3 = {R.Top[0].Dim, R.Top[1].Dim, R.Top[2].Dim};
  std::sort(Top3.begin(), Top3.end());
  EXPECT_EQ(Top3, Spec.PerturbedDims);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_GT(std::fabs(R.Top[I].ZScore), 3.0);
    EXPECT_TRUE(R.Top[I].Cusum);
  }
  EXPECT_EQ(R.Type, DriftType::Sudden);
  EXPECT_EQ(R.Excursions, 1u);
  EXPECT_TRUE(R.RejectPageHinkley); // ~0.05 -> ~0.35 rejection step.
}

TEST(DriftAttributionTest, GradualRampClassifiedGradualAndDetected) {
  DriftStreamSpec Spec = streamSpec(DriftShape::Gradual);
  DriftStreamGenerator Gen(Spec);
  DriftAttribution Attr(streamAttrConfig());
  for (size_t I = 0; I < 2560; ++I) {
    DriftObservation Obs = Gen.next();
    Attr.observe(Obs.Features, Obs.Rejected);
  }
  DriftAttributionReport R = Attr.report();
  EXPECT_EQ(R.Type, DriftType::Gradual);
  EXPECT_EQ(R.Excursions, 1u);
  EXPECT_EQ(R.DriftedDims, 3u);
  EXPECT_GE(R.CusumDims, 3u);
  std::vector<size_t> Top3 = {R.Top[0].Dim, R.Top[1].Dim, R.Top[2].Dim};
  std::sort(Top3.begin(), Top3.end());
  EXPECT_EQ(Top3, Spec.PerturbedDims);
}

TEST(DriftAttributionTest, RecurringDriftClassifiedRecurring) {
  DriftStreamSpec Spec = streamSpec(DriftShape::Recurring);
  DriftStreamGenerator Gen(Spec);
  DriftAttribution Attr(streamAttrConfig());
  // Two full on/off cycles after the onset at 1024 (period 256).
  for (size_t I = 0; I < 2176; ++I) {
    DriftObservation Obs = Gen.next();
    Attr.observe(Obs.Features, Obs.Rejected);
  }
  DriftAttributionReport R = Attr.report();
  EXPECT_GE(R.Excursions, 2u);
  EXPECT_EQ(R.Type, DriftType::Recurring);
}

TEST(DriftAttributionTest, TopKTiesBreakByDimensionIndex) {
  DriftAttributionConfig Cfg;
  Cfg.ReferenceWindow = 8;
  Cfg.CurrentWindow = 8;
  Cfg.MinCurrent = 1;
  Cfg.TopK = 4;
  DriftAttribution Attr(Cfg);

  // Constant reference, then dimensions {1, 3, 5} shift by exactly the
  // same amount: their z-scores are bit-identical, so the ranking must
  // fall back to ascending dimension index — deterministically.
  std::vector<double> Base(6, 0.0);
  for (int I = 0; I < 8; ++I)
    Attr.observe(Base, false);
  ASSERT_TRUE(Attr.referenceReady());
  std::vector<double> Shifted = Base;
  Shifted[1] = Shifted[3] = Shifted[5] = 1.0;
  for (int I = 0; I < 4; ++I)
    Attr.observe(Shifted, false);

  DriftAttributionReport R = Attr.report();
  ASSERT_EQ(R.Top.size(), 4u);
  EXPECT_EQ(bits(std::fabs(R.Top[0].ZScore)),
            bits(std::fabs(R.Top[1].ZScore))); // Genuine tie.
  EXPECT_EQ(R.Top[0].Dim, 1u);
  EXPECT_EQ(R.Top[1].Dim, 3u);
  EXPECT_EQ(R.Top[2].Dim, 5u);
  EXPECT_EQ(R.Top[3].Dim, 0u); // z == 0 ties also break by index.
}

TEST(DriftAttributionTest, RearmRebuildsReferenceAgainstTheNewNormal) {
  DriftStreamSpec Spec = streamSpec(DriftShape::Sudden);
  DriftStreamGenerator Gen(Spec);
  DriftAttribution Attr(streamAttrConfig());
  for (size_t I = 0; I < 2048; ++I) {
    DriftObservation Obs = Gen.next();
    Attr.observe(Obs.Features, Obs.Rejected);
  }
  ASSERT_GT(Attr.report().DriftedDims, 0u);

  // Rearm: the drifted distribution becomes the new normal. Feeding the
  // same (still shifted) stream must rebuild a clean reference with no
  // alarms — and lifetime counters survive.
  uint64_t SeenBefore = Attr.totalObserved();
  Attr.rearm();
  EXPECT_FALSE(Attr.referenceReady());
  EXPECT_EQ(Attr.rearms(), 1u);
  for (size_t I = 0; I < 1024; ++I) {
    DriftObservation Obs = Gen.next();
    Attr.observe(Obs.Features, Obs.Rejected);
  }
  EXPECT_EQ(Attr.totalObserved(), SeenBefore + 1024);
  ASSERT_TRUE(Attr.referenceReady());
  DriftAttributionReport R = Attr.report();
  EXPECT_EQ(R.DriftedDims, 0u);
  EXPECT_EQ(R.CusumDims, 0u);
  EXPECT_EQ(R.Type, DriftType::None);
}

TEST(DriftAttributionTest, RejectionOnlyStreamDrivesRejectionDetectors) {
  DriftAttributionConfig Cfg = streamAttrConfig();
  Cfg.ReferenceWindow = 256;
  DriftAttribution Attr(Cfg);
  support::Rng R(41);
  // In-control rejection stream, then a step to heavy rejection — with
  // no feature vectors at all (regression verdicts, say).
  for (int I = 0; I < 1024; ++I)
    Attr.observeRejection(R.bernoulli(0.05));
  EXPECT_FALSE(Attr.report().RejectCusum);
  for (int I = 0; I < 512; ++I)
    Attr.observeRejection(R.bernoulli(0.5));
  DriftAttributionReport Rep = Attr.report();
  EXPECT_EQ(Rep.Dims, 0u);
  EXPECT_TRUE(Rep.RejectCusum);
  EXPECT_TRUE(Rep.RejectPageHinkley);
  EXPECT_NEAR(Rep.ReferenceRejectRate, 0.05, 0.05);
}

TEST(DriftAttributionTest, MismatchedWidthsFoldRejectionOnly) {
  DriftAttributionConfig Cfg;
  Cfg.ReferenceWindow = 4;
  DriftAttribution Attr(Cfg);
  std::vector<double> Narrow = {1.0, 2.0};
  std::vector<double> Wide = {1.0, 2.0, 3.0};
  Attr.observe(Narrow, false); // Fixes the tracked width at 2.
  Attr.observe(Wide, true);    // Width mismatch: rejection still folds.
  Attr.observe(Narrow, false);
  EXPECT_EQ(Attr.dimMismatches(), 1u);
  EXPECT_EQ(Attr.totalObserved(), 3u);
  EXPECT_EQ(Attr.report().Dims, 2u);
}

//===----------------------------------------------------------------------===//
// WindowedDriftMonitor vs a naive ring-buffer reference (property test)
//===----------------------------------------------------------------------===//

namespace {

/// Naive reference monitor: keeps the raw window, recomputes every
/// counter from scratch on each fold.
struct NaiveMonitor {
  DriftWindowConfig Cfg;
  std::deque<std::pair<bool, int>> Win; ///< (rejected, mispredicted).
  size_t Total = 0;
  bool Active = false;
  size_t Alerts = 0;
  DetectionCounts Lifetime;

  explicit NaiveMonitor(DriftWindowConfig C) : Cfg(C) {}

  void fold(bool Rej, int Mis) {
    Win.emplace_back(Rej, Mis);
    if (Win.size() > Cfg.WindowSize)
      Win.pop_front();
    ++Total;
    if (Mis >= 0)
      Lifetime.record(Mis != 0, Rej);
    double Rate = rate();
    bool Above = Win.size() >= Cfg.MinFill && Rate > Cfg.AlertRejectRate;
    if (Above && !Active)
      ++Alerts;
    Active = Above;
  }

  size_t rejected() const {
    size_t N = 0;
    for (const auto &E : Win)
      if (E.first)
        ++N;
    return N;
  }

  double rate() const {
    return Win.empty() ? 0.0
                       : static_cast<double>(rejected()) /
                             static_cast<double>(Win.size());
  }

  DetectionCounts window() const {
    DetectionCounts W;
    for (const auto &E : Win)
      if (E.second >= 0)
        W.record(E.second != 0, E.first);
    return W;
  }

  void reset() {
    Win.clear();
    Total = 0;
    Active = false;
    Alerts = 0;
    Lifetime = DetectionCounts();
  }
};

void expectSameCounts(const DetectionCounts &A, const DetectionCounts &B) {
  EXPECT_EQ(A.TruePositive, B.TruePositive);
  EXPECT_EQ(A.FalsePositive, B.FalsePositive);
  EXPECT_EQ(A.TrueNegative, B.TrueNegative);
  EXPECT_EQ(A.FalseNegative, B.FalseNegative);
}

/// One randomized run: random window config, then a random interleaving
/// of record / recordLabeled / feature-carrying record / reset, with the
/// full snapshot compared against the naive reference after every
/// operation. An attribution sink rides along the whole time to prove
/// the counters never depend on it.
void runMonitorProperty(uint64_t Seed) {
  SCOPED_TRACE("failure seed " + std::to_string(Seed) +
               " (replay: PROM_DRIFT_PROP_SEED=" + std::to_string(Seed) +
               " ctest -R DriftAttributionTest)");
  support::Rng R(Seed);
  DriftWindowConfig Cfg;
  Cfg.WindowSize = 1 + R.bounded(48);
  Cfg.MinFill = 1 + R.bounded(Cfg.WindowSize);
  Cfg.AlertRejectRate = R.uniform(0.05, 0.6);
  WindowedDriftMonitor M(Cfg);
  NaiveMonitor Ref(Cfg);

  DriftAttributionConfig ACfg;
  ACfg.ReferenceWindow = 16;
  ACfg.CurrentWindow = 8;
  ACfg.MinCurrent = 2;
  DriftAttribution Sink(ACfg);
  M.setAttributionSink(&Sink);

  double PReject = R.uniform(0.1, 0.9);
  for (int Op = 0; Op < 300; ++Op) {
    double U = R.uniform();
    bool Rej = R.bernoulli(PReject);
    if (U < 0.04) {
      M.reset();
      Ref.reset();
    } else if (U < 0.40) {
      M.record(fakeVerdict(Rej));
      Ref.fold(Rej, -1);
    } else if (U < 0.70) {
      bool Mis = R.bernoulli(0.5);
      M.recordLabeled(fakeVerdict(Rej), Mis);
      Ref.fold(Rej, Mis ? 1 : 0);
    } else {
      std::vector<double> F = {R.gaussian(), R.gaussian(), R.gaussian()};
      M.record(fakeVerdict(Rej), F.data(), F.size());
      Ref.fold(Rej, -1);
    }

    DriftWindowSnapshot S = M.snapshot();
    ASSERT_EQ(S.TotalSeen, Ref.Total) << "op " << Op;
    ASSERT_EQ(S.WindowFill, Ref.Win.size()) << "op " << Op;
    ASSERT_EQ(S.WindowRejected, Ref.rejected()) << "op " << Op;
    ASSERT_EQ(bits(S.RejectRate), bits(Ref.rate())) << "op " << Op;
    ASSERT_EQ(S.AlertActive, Ref.Active) << "op " << Op;
    ASSERT_EQ(S.AlertsRaised, Ref.Alerts) << "op " << Op;
    expectSameCounts(S.Window, Ref.window());
    expectSameCounts(S.Lifetime, Ref.Lifetime);
    EXPECT_TRUE(S.HasAttribution);
  }
}

} // namespace

TEST(DriftAttributionTest, MonitorMatchesNaiveReferenceUnderRandomOps) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed)
    runMonitorProperty(Seed);
}

TEST(DriftAttributionTest, MonitorPropertyReplaySeedFromEnv) {
  const char *V = std::getenv("PROM_DRIFT_PROP_SEED");
  if (V == nullptr || *V == '\0')
    GTEST_SKIP() << "set PROM_DRIFT_PROP_SEED=<seed> to replay a failure";
  runMonitorProperty(envSeedOr("PROM_DRIFT_PROP_SEED", 0));
}

//===----------------------------------------------------------------------===//
// Observe-only: served verdicts bit-identical with attribution on or off
//===----------------------------------------------------------------------===//

TEST(DriftAttributionTest, ServedVerdictsBitIdenticalWithAttributionOnOrOff) {
  support::Rng R(63);
  data::Dataset Full = gaussianBlobs(3, 200, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.35);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromClassifier Prom(Model);
  Prom.calibrate(Split.second);

  // Half in-distribution, half shifted — so the stream actually drifts
  // and the monitor/sink have something to chew on.
  data::Dataset Test = gaussianBlobs(3, 25, 4.0, 0.8, R);
  data::Dataset Shifted = gaussianBlobs(3, 25, 4.0, 0.8, R, /*ShiftX=*/3.0);
  for (const data::Sample &S : Shifted.samples())
    Test.add(S);
  std::vector<Verdict> Direct = Prom.assessBatch(Test);

  struct RunResult {
    std::vector<Verdict> Verdicts;
    DriftWindowSnapshot Window;
  };
  auto serveOnce = [&](bool WithAttribution) {
    DriftAttributionConfig ACfg;
    ACfg.ReferenceWindow = 24;
    ACfg.CurrentWindow = 12;
    ACfg.MinCurrent = 4;
    DriftAttribution Attr(ACfg);

    DriftWindowConfig WCfg;
    WCfg.WindowSize = 32;
    WCfg.MinFill = 8;
    WCfg.AlertRejectRate = 0.2;
    WindowedDriftMonitor Monitor(WCfg);
    if (WithAttribution)
      Monitor.setAttributionSink(&Attr);

    ServiceConfig SCfg;
    SCfg.MaxBatch = 16;
    // One batcher: the monitor fold order is then the submission order,
    // so the window counters of the two runs are comparable exactly.
    SCfg.NumBatchers = 1;
    AssessmentService Svc(Prom, SCfg, &Monitor);
    std::vector<std::future<Verdict>> Futures;
    for (const data::Sample &S : Test.samples())
      Futures.push_back(Svc.submit(S));
    RunResult Out;
    for (auto &F : Futures)
      Out.Verdicts.push_back(F.get());
    Svc.shutdown();
    Out.Window = Monitor.snapshot();
    if (WithAttribution) {
      EXPECT_EQ(Attr.totalObserved(), Test.size());
      EXPECT_TRUE(Attr.referenceReady());
      EXPECT_TRUE(Out.Window.HasAttribution);
    } else {
      EXPECT_FALSE(Out.Window.HasAttribution);
    }
    return Out;
  };

  RunResult Off = serveOnce(false);
  RunResult On = serveOnce(true);
  ASSERT_EQ(Off.Verdicts.size(), Test.size());
  ASSERT_EQ(On.Verdicts.size(), Test.size());
  for (size_t I = 0; I < Test.size(); ++I) {
    expectSameVerdict(Direct[I], Off.Verdicts[I], I);
    expectSameVerdict(Direct[I], On.Verdicts[I], I);
  }
  // The window counters must not depend on the sink either.
  EXPECT_EQ(Off.Window.TotalSeen, On.Window.TotalSeen);
  EXPECT_EQ(Off.Window.WindowRejected, On.Window.WindowRejected);
  EXPECT_EQ(Off.Window.AlertsRaised, On.Window.AlertsRaised);
}

//===----------------------------------------------------------------------===//
// Attribution through snapshots, alerts, and the controller
//===----------------------------------------------------------------------===//

TEST(DriftAttributionTest, AlertSnapshotCarriesAttributionReport) {
  DriftWindowConfig WCfg;
  WCfg.WindowSize = 16;
  WCfg.MinFill = 8;
  WCfg.AlertRejectRate = 0.5;
  WindowedDriftMonitor Monitor(WCfg);

  DriftAttributionConfig ACfg;
  ACfg.ReferenceWindow = 8;
  ACfg.CurrentWindow = 4;
  ACfg.MinCurrent = 2;
  DriftAttribution Attr(ACfg);
  Monitor.setAttributionSink(&Attr);

  size_t AlertsSeen = 0;
  DriftWindowSnapshot AtAlert;
  Monitor.setAlertCallback([&](const DriftWindowSnapshot &S) {
    ++AlertsSeen;
    AtAlert = S;
  });

  support::Rng R(51);
  std::vector<double> F(3);
  // Clean reference, then a rejecting shifted burst that trips the alert.
  for (int I = 0; I < 10; ++I) {
    for (double &X : F)
      X = R.gaussian(0.0, 1.0);
    Monitor.record(fakeVerdict(false), F.data(), F.size());
  }
  for (int I = 0; I < 10; ++I) {
    for (double &X : F)
      X = R.gaussian(6.0, 1.0);
    Monitor.record(fakeVerdict(true), F.data(), F.size());
  }

  ASSERT_EQ(AlertsSeen, 1u);
  EXPECT_TRUE(AtAlert.AlertActive);
  ASSERT_TRUE(AtAlert.HasAttribution);
  // The crossing verdict is already in the attribution state (sink
  // observes before the fold).
  EXPECT_EQ(AtAlert.Attribution.ReferenceCount +
                AtAlert.Attribution.CurrentCount,
            AtAlert.TotalSeen);
  EXPECT_TRUE(Monitor.snapshot().HasAttribution);
  EXPECT_EQ(Monitor.attributionSink(), &Attr);
}

TEST(DriftAttributionTest, ControllerPrioritizesRelabelBufferByAttribution) {
  support::Rng R(73);
  data::Dataset Full = gaussianBlobs(3, 150, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.4);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromClassifier Prom(Model);
  Prom.calibrate(Split.second);

  WindowedDriftMonitor Monitor;
  DriftAttributionConfig ACfg;
  ACfg.ReferenceWindow = 16;
  ACfg.CurrentWindow = 8;
  ACfg.MinCurrent = 4;
  ACfg.TopK = 2;
  DriftAttribution Attr(ACfg);

  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 8;
  RCfg.MaxSamplesPerRefresh = 8;
  RecalibrationController Controller(Prom, Monitor, RCfg);
  Controller.setAttribution(&Attr);

  // Teach the attribution layer that dimension 1 drifted: a clean
  // reference around the origin, then a strong shift on dim 1 only.
  std::vector<double> F(2);
  for (int I = 0; I < 16; ++I) {
    F[0] = R.gaussian(0.0, 1.0);
    F[1] = R.gaussian(0.0, 1.0);
    Attr.observe(F, false);
  }
  for (int I = 0; I < 8; ++I) {
    F[0] = R.gaussian(0.0, 1.0);
    F[1] = R.gaussian(8.0, 1.0);
    Attr.observe(F, true);
  }
  DriftAttributionReport Rep = Attr.report();
  ASSERT_TRUE(Rep.ReferenceReady);
  ASSERT_FALSE(Rep.Top.empty());
  ASSERT_EQ(Rep.Top[0].Dim, 1u);

  // Sixteen relabeled samples, interleaved: even ones live where the
  // drift is (far out on dim 1), odd ones near the reference. The
  // bounded refresh must fold the drift-relevant eight — not simply the
  // newest eight.
  for (int I = 0; I < 16; ++I) {
    data::Sample S = Split.second[static_cast<size_t>(I)];
    if (I % 2 == 0)
      S.Features[1] += 20.0;
    Controller.submitLabeled(std::move(S));
  }
  Controller.triggerRefresh();
  ASSERT_TRUE(Controller.waitForRefreshes(1, std::chrono::milliseconds(5000)));

  RecalibrationStats Stats = Controller.stats();
  EXPECT_EQ(Stats.SamplesFolded, 8u);
  EXPECT_EQ(Stats.RefreshesPrioritized, 1u);
  EXPECT_EQ(Stats.PendingSamples, 8u); // The near-reference tail requeued.
  ASSERT_FALSE(Stats.LastDriftedDims.empty());
  EXPECT_EQ(Stats.LastDriftedDims[0], 1u);
  EXPECT_GT(Stats.LastMaxAbsZ, 3.0);
  // ResetMonitorAfterRefresh re-arms the attribution layer too.
  EXPECT_EQ(Attr.rearms(), 1u);
  EXPECT_FALSE(Attr.referenceReady());
  Controller.shutdown();
}
