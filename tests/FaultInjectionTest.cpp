//===- tests/FaultInjectionTest.cpp - armable failure points ------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fault-injection registry must be deterministic under a fixed seed,
// zero-effect while disarmed, and the armed fault points must produce
// exactly the degraded-but-safe behavior the serving runtime promises:
// a failed snapshot write/commit leaves the previous committed generation
// loadable, torn and corrupted writes are caught by the checksummed load,
// every open reads its snapshot file once, an abandoned refresh keeps the
// engine serving bit-identical verdicts and requeues its batch, and a
// stalled batcher still answers correctly.
//
//===----------------------------------------------------------------------===//

#include "core/CApi.h"
#include "core/Detector.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "serve/AssessmentService.h"
#include "serve/DetectorRegistry.h"
#include "serve/RecalibrationController.h"
#include "serve/WindowedDriftMonitor.h"
#include "support/FaultInjection.h"
#include "support/Serialize.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace prom;
using namespace prom::serve;
using namespace prom::support;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;

namespace {

/// Calibrated classifier + probe set shared across the snapshot/serving
/// fault tests (engine state is never mutated by them).
struct EngineFixture {
  Rng R{205};
  data::Dataset Train, Calib, Probes;
  ml::LogisticRegression Model;
  std::unique_ptr<PromClassifier> Prom;

  EngineFixture() {
    data::Dataset Full = gaussianBlobs(3, 200, 4.0, 0.8, R);
    auto Split = data::calibrationPartition(Full, R, 0.35);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    Prom = std::make_unique<PromClassifier>(Model);
    Prom->calibrate(Calib);
    Probes = gaussianBlobs(3, 24, 4.0, 0.8, R);
  }
};

EngineFixture &fixture() {
  static EngineFixture F;
  return F;
}

/// loadLatestSnapshot() of \p Dir into \p D: the generation that loaded,
/// or 0.
uint64_t loadLatest(const std::string &Dir, PromClassifier &D) {
  return loadLatestSnapshot(
      Dir, [&D](const std::string &Path) { return D.loadSnapshot(Path); });
}

/// Every test leaves the process with all faults disarmed, whatever path
/// it exits through — armed leftovers would poison unrelated suites.
class FaultInjectionTest : public ::testing::Test {
protected:
  void SetUp() override { faults::disarmAll(); }
  void TearDown() override { faults::disarmAll(); }

  std::string tempDir(const std::string &Name) {
    std::string Dir = ::testing::TempDir() + "/faults_" + Name;
    EXPECT_TRUE(ensureDirectory(Dir));
    return Dir;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Registry semantics
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, DisarmedPointsNeverFireOrCount) {
  EXPECT_FALSE(faults::shouldFail("snapshot_write"));
  EXPECT_EQ(faults::drawCount("snapshot_write"), 0u);
  EXPECT_TRUE(faults::armedPoints().empty());

  // Arming an unrelated point must not make other names fire.
  faults::arm("other_point");
  EXPECT_FALSE(faults::shouldFail("snapshot_write"));
  EXPECT_TRUE(faults::shouldFail("other_point"));

  faults::disarm("other_point");
  EXPECT_FALSE(faults::shouldFail("other_point"));
  EXPECT_TRUE(faults::armedPoints().empty());
}

TEST_F(FaultInjectionTest, ProbabilityExtremesAreDeterministic) {
  faults::arm("always", 1.0);
  faults::arm("never", 0.0);
  for (int I = 0; I < 32; ++I) {
    EXPECT_TRUE(faults::shouldFail("always"));
    EXPECT_FALSE(faults::shouldFail("never"));
  }
  EXPECT_EQ(faults::fireCount("always"), 32u);
  EXPECT_EQ(faults::drawCount("always"), 32u);
  EXPECT_EQ(faults::fireCount("never"), 0u);
  EXPECT_EQ(faults::drawCount("never"), 32u);

  // Out-of-range probabilities clamp.
  faults::arm("clamped_hi", 7.0);
  faults::arm("clamped_lo", -2.0);
  EXPECT_TRUE(faults::shouldFail("clamped_hi"));
  EXPECT_FALSE(faults::shouldFail("clamped_lo"));
}

TEST_F(FaultInjectionTest, SeededFiringReplaysExactly) {
  auto Pattern = [] {
    std::vector<bool> P;
    for (int I = 0; I < 64; ++I)
      P.push_back(faults::shouldFail("coin"));
    return P;
  };

  faults::seed(7);
  faults::arm("coin", 0.5);
  std::vector<bool> First = Pattern();

  faults::disarmAll();
  faults::seed(7);
  faults::arm("coin", 0.5);
  EXPECT_EQ(Pattern(), First);

  // A fair coin over 64 draws fires somewhere strictly inside (0, 64).
  uint64_t Fires = faults::fireCount("coin");
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, 64u);
}

TEST_F(FaultInjectionTest, ProbabilityOnePointsDoNotPerturbTheStream) {
  // A probability-1 point consumes no draw from the shared stream, so
  // interleaving it with a probabilistic point leaves that point's firing
  // pattern untouched — fully-armed faults stay deterministic no matter
  // what else is armed.
  auto CoinPattern = [](bool Interleave) {
    std::vector<bool> P;
    for (int I = 0; I < 32; ++I) {
      if (Interleave)
        (void)faults::shouldFail("certain");
      P.push_back(faults::shouldFail("coin"));
    }
    return P;
  };

  faults::seed(11);
  faults::arm("coin", 0.5);
  std::vector<bool> Alone = CoinPattern(false);

  faults::disarmAll();
  faults::seed(11);
  faults::arm("coin", 0.5);
  faults::arm("certain", 1.0);
  EXPECT_EQ(CoinPattern(true), Alone);
  EXPECT_EQ(faults::fireCount("certain"), 32u);
}

TEST_F(FaultInjectionTest, ArmFromEnvParsesSpecAndSkipsMalformedEntries) {
  ::setenv("PROM_FAULTS", "alpha,beta:0.25,:0.5,gamma:junk,delta:2.5,,", 1);
  ::setenv("PROM_FAULTS_SEED", "42", 1);
  EXPECT_EQ(faults::armFromEnv(), 3u); // alpha, beta, delta.
  ::unsetenv("PROM_FAULTS");
  ::unsetenv("PROM_FAULTS_SEED");

  double Alpha = -1, Beta = -1, Delta = -1;
  size_t Armed = 0;
  for (const auto &KV : faults::armedPoints()) {
    ++Armed;
    if (KV.first == "alpha")
      Alpha = KV.second;
    else if (KV.first == "beta")
      Beta = KV.second;
    else if (KV.first == "delta")
      Delta = KV.second;
  }
  EXPECT_EQ(Armed, 3u);
  EXPECT_DOUBLE_EQ(Alpha, 1.0);
  EXPECT_DOUBLE_EQ(Beta, 0.25);
  EXPECT_DOUBLE_EQ(Delta, 1.0); // Clamped.

  // Absent variable arms nothing.
  EXPECT_EQ(faults::armFromEnv(), 0u);
}

//===----------------------------------------------------------------------===//
// Snapshot fault points: degraded writes must leave a loadable past
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, FailedWriteLeavesPreviousGenerationServing) {
  EngineFixture &F = fixture();
  std::string Dir = tempDir("write");
  std::vector<Verdict> Expected = F.Prom->assessBatch(F.Probes);

  // A healthy generation 1 first.
  std::string Gen1 = Dir + "/" + snapshotGenerationFile(1);
  ASSERT_TRUE(F.Prom->saveSnapshot(Gen1));
  ASSERT_TRUE(commitLatestPointer(Dir, 1));

  // Generation 2's write fails outright: no file, no pointer movement.
  faults::arm("snapshot_write");
  std::string Gen2 = Dir + "/" + snapshotGenerationFile(2);
  EXPECT_FALSE(F.Prom->saveSnapshot(Gen2));
  EXPECT_GE(faults::fireCount("snapshot_write"), 1u);
  faults::disarm("snapshot_write");

  // The directory still restores generation 1, bit-identically.
  PromClassifier Restored(F.Model);
  ASSERT_EQ(loadLatest(Dir, Restored), 1u);
  std::vector<Verdict> Got = Restored.assessBatch(F.Probes);
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameVerdict(Expected[I], Got[I], I);

  // Disarmed, the very same call succeeds.
  EXPECT_TRUE(F.Prom->saveSnapshot(Gen2));
  ASSERT_TRUE(commitLatestPointer(Dir, 2));
  EXPECT_EQ(loadLatest(Dir, Restored), 2u);
}

TEST_F(FaultInjectionTest, TornWriteIsCaughtAndWalkedBack) {
  EngineFixture &F = fixture();
  std::string Dir = tempDir("torn");

  std::string Gen1 = Dir + "/" + snapshotGenerationFile(1);
  ASSERT_TRUE(F.Prom->saveSnapshot(Gen1));
  ASSERT_TRUE(commitLatestPointer(Dir, 1));

  // The torn write *reports success* — the process believed the snapshot
  // landed, and even committed the pointer to it. Only the checksummed
  // load knows better.
  faults::arm("snapshot_truncate");
  std::string Gen2 = Dir + "/" + snapshotGenerationFile(2);
  ASSERT_TRUE(F.Prom->saveSnapshot(Gen2));
  faults::disarm("snapshot_truncate");
  ASSERT_TRUE(commitLatestPointer(Dir, 2));

  PromClassifier Victim(F.Model);
  EXPECT_FALSE(Victim.loadSnapshot(Gen2));
  // The pointer names generation 2, but the load walks back to the
  // newest generation that actually loads.
  PromClassifier Restored(F.Model);
  EXPECT_EQ(loadLatest(Dir, Restored), 1u);
  EXPECT_EQ(Restored.calibrationSize(), F.Prom->calibrationSize());
}

TEST_F(FaultInjectionTest, SilentCorruptionFailsTheChecksum) {
  EngineFixture &F = fixture();
  std::string Dir = tempDir("corrupt");

  // Full-length file, one payload byte flipped after checksumming: the
  // size checks pass; only the checksum catches it.
  faults::arm("snapshot_corrupt");
  std::string Path = Dir + "/" + snapshotGenerationFile(1);
  ASSERT_TRUE(F.Prom->saveSnapshot(Path));
  faults::disarm("snapshot_corrupt");

  PromClassifier Victim(F.Model);
  EXPECT_FALSE(Victim.loadSnapshot(Path));
  EXPECT_EQ(loadLatest(Dir, Victim), 0u);
}

TEST_F(FaultInjectionTest, RenameFaultKeepsThePreviousPointer) {
  EngineFixture &F = fixture();
  std::string Dir = tempDir("rename");

  std::string Gen1 = Dir + "/" + snapshotGenerationFile(1);
  ASSERT_TRUE(F.Prom->saveSnapshot(Gen1));
  ASSERT_TRUE(commitLatestPointer(Dir, 1));

  std::string Gen2 = Dir + "/" + snapshotGenerationFile(2);
  ASSERT_TRUE(F.Prom->saveSnapshot(Gen2));
  faults::arm("snapshot_rename");
  EXPECT_FALSE(commitLatestPointer(Dir, 2));
  faults::disarm("snapshot_rename");

  // Generation 1 stays committed; the uncommitted (but valid) 2 is only a
  // fallback if 1 ever stops loading.
  PromClassifier Restored(F.Model);
  EXPECT_EQ(loadLatest(Dir, Restored), 1u);
  EXPECT_TRUE(commitLatestPointer(Dir, 2));
  EXPECT_EQ(loadLatest(Dir, Restored), 2u);
}

TEST_F(FaultInjectionTest, LoadFaultFailsCleanlyAndRecovers) {
  EngineFixture &F = fixture();
  std::string Dir = tempDir("load");

  std::string Gen1 = Dir + "/" + snapshotGenerationFile(1);
  ASSERT_TRUE(F.Prom->saveSnapshot(Gen1));
  ASSERT_TRUE(commitLatestPointer(Dir, 1));

  faults::arm("snapshot_load");
  PromClassifier Victim(F.Model);
  EXPECT_FALSE(Victim.loadSnapshot(Gen1));
  // The directory load fails too: nothing loads while armed.
  EXPECT_EQ(loadLatest(Dir, Victim), 0u);
  faults::disarm("snapshot_load");

  EXPECT_EQ(loadLatest(Dir, Victim), 1u);
  EXPECT_TRUE(Victim.loadSnapshot(Gen1));
}

TEST_F(FaultInjectionTest, EveryOpenReadsItsSnapshotOnce) {
  // Armed at probability 0, snapshot_load never fires but counts every
  // ByteReader::loadFile call: one open, one read of the committed file.
  EngineFixture &F = fixture();
  int Classes = 3;
  int Dim = static_cast<int>(F.Probes[0].Features.size());

  std::string CDir = tempDir("reads_capi");
  prom_detector *D = prom_create(Classes, Dim, 0.0);
  ASSERT_NE(D, nullptr);
  for (const data::Sample &S : F.Calib.samples()) {
    std::vector<double> P = F.Model.predictProba(S);
    ASSERT_EQ(prom_add_calibration(D, P.data(), S.Features.data(), S.Label),
              0);
  }
  ASSERT_EQ(prom_finalize(D), 0);
  ASSERT_EQ(prom_save(D, CDir.c_str()), 0);
  prom_destroy(D);

  faults::arm("snapshot_load", 0.0);
  prom_detector *Opened = prom_open(Classes, Dim, 0.0, CDir.c_str());
  EXPECT_NE(Opened, nullptr);
  EXPECT_EQ(faults::drawCount("snapshot_load"), 1u);
  prom_destroy(Opened);
  faults::disarmAll();

  // A cold registry acquire: the lazy load reads the generation the
  // eviction rotated, once.
  DetectorRegistry Registry;
  TenantSpec Spec;
  Spec.Model = &F.Model;
  Spec.SnapshotDir = tempDir("reads_registry");
  ASSERT_TRUE(Registry.registerTenant("t", Spec));
  auto Engine = std::make_unique<PromClassifier>(F.Model);
  Engine->calibrate(F.Calib);
  ASSERT_TRUE(Registry.installDetector("t", std::move(Engine)));
  ASSERT_TRUE(Registry.evict("t"));
  faults::arm("snapshot_load", 0.0);
  EXPECT_TRUE(static_cast<bool>(Registry.acquire("t")));
  EXPECT_EQ(faults::drawCount("snapshot_load"), 1u);
}

//===----------------------------------------------------------------------===//
// Controller + service fault points: degrade, never corrupt
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, AbandonedRefreshKeepsServingAndRequeues) {
  // A fresh engine (not the shared fixture): the refresh mutates
  // calibration state on the success path.
  Rng R(301);
  data::Dataset Full = gaussianBlobs(3, 200, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.35);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromClassifier Prom(Model);
  Prom.calibrate(Split.second);
  size_t SizeBefore = Prom.calibrationSize();

  data::Dataset Probe = gaussianBlobs(3, 16, 4.0, 0.8, R);
  std::vector<Verdict> Before = Prom.assessBatch(Probe);

  WindowedDriftMonitor Monitor(DriftWindowConfig{64, 0.9, 64});
  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 8;
  RCfg.MaxRefreshAttempts = 2;
  RCfg.RefreshRetryBackoff = std::chrono::milliseconds(1);
  RecalibrationController Controller(Prom, Monitor, RCfg);

  faults::arm("refresh_throw");
  for (int I = 0; I < 8; ++I) {
    data::Sample S;
    S.Features = {R.gaussian(0.0, 0.5), R.gaussian(0.0, 0.5)};
    S.Label = 0;
    Controller.submitLabeled(S);
  }
  Controller.triggerRefresh();

  // Every attempt throws, so the batch is abandoned after the bounded
  // retries and requeued intact.
  RecalibrationStats Stats;
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    Stats = Controller.stats();
    if (Stats.RefreshesAbandoned >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < Deadline);
  ASSERT_EQ(Stats.RefreshesAbandoned, 1u);
  EXPECT_EQ(Stats.RefreshFailures, 2u); // MaxRefreshAttempts, all failed.
  EXPECT_EQ(Stats.RefreshesCompleted, 0u);
  EXPECT_EQ(Controller.pendingLabeled(), 8u); // Requeued, none lost.

  // The store never moved: bit-identical verdicts throughout the storm.
  EXPECT_EQ(Prom.calibrationSize(), SizeBefore);
  std::vector<Verdict> During = Prom.assessBatch(Probe);
  for (size_t I = 0; I < Before.size(); ++I)
    expectSameVerdict(Before[I], During[I], I);

  // Disarm and retrigger: the requeued batch folds in.
  faults::disarmAll();
  Controller.triggerRefresh();
  ASSERT_TRUE(Controller.waitForRefreshes(1, std::chrono::milliseconds(10000)));
  Stats = Controller.stats();
  EXPECT_EQ(Stats.RefreshesCompleted, 1u);
  EXPECT_EQ(Stats.SamplesFolded, 8u);
  EXPECT_EQ(Prom.calibrationSize(), SizeBefore + 8);
  EXPECT_EQ(Controller.pendingLabeled(), 0u);
}

TEST_F(FaultInjectionTest, StalledRefreshStillCompletes) {
  Rng R(317);
  data::Dataset Full = gaussianBlobs(3, 200, 4.0, 0.8, R);
  auto Split = data::calibrationPartition(Full, R, 0.35);
  ml::LogisticRegression Model;
  Model.fit(Split.first, R);
  PromClassifier Prom(Model);
  Prom.calibrate(Split.second);

  WindowedDriftMonitor Monitor(DriftWindowConfig{64, 0.9, 64});
  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 4;
  RecalibrationController Controller(Prom, Monitor, RCfg);

  faults::arm("refresh_stall");
  for (int I = 0; I < 4; ++I) {
    data::Sample S;
    S.Features = {R.gaussian(0.0, 0.5), R.gaussian(0.0, 0.5)};
    S.Label = 0;
    Controller.submitLabeled(S);
  }
  Controller.triggerRefresh();
  ASSERT_TRUE(Controller.waitForRefreshes(1, std::chrono::milliseconds(10000)));
  EXPECT_GE(faults::fireCount("refresh_stall"), 1u);
  EXPECT_EQ(Controller.stats().RefreshFailures, 0u); // Slow, not failed.
}

TEST_F(FaultInjectionTest, StalledBatcherStillAnswersBitIdentically) {
  EngineFixture &F = fixture();
  std::vector<Verdict> Direct = F.Prom->assessBatch(F.Probes);

  faults::arm("batcher_stall");
  ServiceConfig Cfg;
  Cfg.MaxBatch = 8;
  AssessmentService Svc(*F.Prom, Cfg);
  std::vector<std::future<Verdict>> Futures;
  for (const data::Sample &S : F.Probes.samples())
    Futures.push_back(Svc.submit(S));
  for (size_t I = 0; I < Futures.size(); ++I)
    expectSameVerdict(Direct[I], Futures[I].get(), I);
  Svc.shutdown();
  EXPECT_GE(faults::fireCount("batcher_stall"), 1u);
  EXPECT_EQ(Svc.stats().Completed, F.Probes.size());
}
