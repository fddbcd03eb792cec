//===- tests/FleetTest.cpp - multi-tenant detector fleet ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fleet contract: a tenant-tagged request through the shared
// AssessmentService + DetectorRegistry must produce a verdict
// bit-identical to a dedicated single-tenant service over the same
// calibrated detector — including after the registry evicts the tenant
// (snapshot saved) and lazily reloads it on the next request. The suite
// runs under PROM_THREADS=1 and =4 pins (see CMakeLists) like the other
// concurrency suites. Also covers LRU eviction under the memory budget,
// lease pinning, per-tenant stats splits, unknown-tenant shedding, and
// per-tenant recalibration controllers.
//
//===----------------------------------------------------------------------===//

#include "data/Split.h"
#include "ml/Linear.h"
#include "serve/AssessmentService.h"
#include "serve/DetectorRegistry.h"
#include "support/Serialize.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <vector>

using namespace prom;
using namespace prom::serve;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;

namespace {

/// A fresh, empty snapshot rotation directory. Suffixed by the
/// PROM_THREADS pin so the Threads1/Threads4 ctest variants running
/// concurrently never share state, and wiped of generations left by a
/// previous run (a stale `latest` would satisfy the first lazy load
/// with last run's calibration).
std::string freshSnapshotDir(const std::string &Name) {
  const char *Pin = std::getenv("PROM_THREADS");
  std::string Dir =
      ::testing::TempDir() + "/fleet_" + Name + "_" + (Pin ? Pin : "host");
  for (uint64_t Gen : support::listSnapshotGenerations(Dir))
    std::remove((Dir + "/" + support::snapshotGenerationFile(Gen)).c_str());
  std::remove((Dir + "/latest").c_str());
  return Dir;
}

/// One tenant's world: model, data, config, and a factory for identical
/// calibrated engines (calibration is deterministic, so two makeEngine()
/// results hold bit-identical state — one goes into the fleet, one backs
/// the dedicated reference service).
struct TenantFixture {
  support::Rng R;
  data::Dataset Train, Calib, Test;
  ml::LogisticRegression Model;
  PromConfig Cfg;

  TenantFixture(uint64_t Seed, int Classes) : R(Seed) {
    data::Dataset Full = gaussianBlobs(Classes, 150, 4.0, 0.8, R);
    auto Split = data::calibrationPartition(Full, R, 0.35);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    Test = gaussianBlobs(Classes, 20, 4.0, 0.8, R);
    for (int I = 0; I < 10; ++I) {
      data::Sample Novel; // Off-manifold probes so some verdicts reject.
      Novel.Features = {R.gaussian(0.0, 0.6), R.gaussian(0.0, 0.6)};
      Novel.Label = 0;
      Test.add(std::move(Novel));
    }
  }

  std::unique_ptr<PromClassifier> makeEngine() const {
    auto E = std::make_unique<PromClassifier>(Model, Cfg);
    E->calibrate(Calib);
    return E;
  }

  TenantSpec spec(const std::string &SnapshotDir) const {
    TenantSpec S;
    S.Model = &Model;
    S.Cfg = Cfg;
    S.SnapshotDir = SnapshotDir;
    return S;
  }
};

TenantFixture &alphaFixture() {
  static TenantFixture F(101, 3);
  return F;
}

TenantFixture &betaFixture() {
  static TenantFixture F(202, 4);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// The tentpole contract: shared-service verdicts == dedicated-service
// verdicts, bit for bit, across an evict -> snapshot-backed reload.
//===----------------------------------------------------------------------===//

TEST(FleetTest, TenantVerdictsBitIdenticalToDedicatedService) {
  TenantFixture &A = alphaFixture();
  TenantFixture &B = betaFixture();

  DetectorRegistry Registry;
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec(freshSnapshotDir("a"))));
  ASSERT_TRUE(Registry.registerTenant("beta", B.spec(freshSnapshotDir("b"))));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));
  ASSERT_TRUE(Registry.installDetector("beta", B.makeEngine()));

  // Dedicated single-tenant services over identically calibrated engines.
  std::unique_ptr<PromClassifier> RefA = A.makeEngine();
  std::unique_ptr<PromClassifier> RefB = B.makeEngine();
  ServiceConfig Cfg;
  Cfg.MaxBatch = 8;
  Cfg.NumBatchers = 2;
  AssessmentService DedicatedA(*RefA, Cfg);
  AssessmentService DedicatedB(*RefB, Cfg);
  AssessmentService Shared(Registry, Cfg);

  // Interleave the two tenants through the shared service so batches
  // would mix them if the batcher did not group per tenant.
  auto RunRound = [&]() {
    std::vector<std::future<Verdict>> SharedA, SharedB, DedA, DedB;
    const size_t Rounds = std::max(A.Test.size(), B.Test.size());
    for (size_t I = 0; I < Rounds; ++I) {
      if (I < A.Test.size()) {
        SharedA.push_back(Shared.submit("alpha", A.Test[I]));
        DedA.push_back(DedicatedA.submit(A.Test[I]));
      }
      if (I < B.Test.size()) {
        SharedB.push_back(Shared.submit("beta", B.Test[I]));
        DedB.push_back(DedicatedB.submit(B.Test[I]));
      }
    }
    for (size_t I = 0; I < SharedA.size(); ++I)
      expectSameVerdict(DedA[I].get(), SharedA[I].get(), I);
    for (size_t I = 0; I < SharedB.size(); ++I)
      expectSameVerdict(DedB[I].get(), SharedB[I].get(), 1000 + I);
  };
  RunRound();

  // Evict both tenants (snapshot saved, engines destroyed) and run the
  // identical round again: the lazily reloaded detectors must land the
  // same bits. drain() first so no lease pins the tenants.
  Shared.drain();
  ASSERT_TRUE(Registry.evict("alpha"));
  ASSERT_TRUE(Registry.evict("beta"));
  EXPECT_FALSE(Registry.isLoaded("alpha"));
  EXPECT_FALSE(Registry.isLoaded("beta"));
  RunRound();
  EXPECT_TRUE(Registry.isLoaded("alpha"));
  EXPECT_TRUE(Registry.isLoaded("beta"));

  // Fleet bookkeeping: two installs, two evictions, two lazy reloads.
  RegistryStats RS = Registry.stats();
  EXPECT_EQ(RS.Installs, 2u);
  EXPECT_EQ(RS.Evictions, 2u);
  EXPECT_EQ(RS.Loads, 2u);
  EXPECT_EQ(RS.SnapshotsSaved, 2u);
  EXPECT_EQ(RS.LoadFailures, 0u);

  // Per-tenant stats split: every tagged request is accounted to its
  // tenant, and the splits sum to the fleet-wide counters.
  Shared.drain();
  ServiceStats SS = Shared.stats();
  ASSERT_EQ(SS.Tenants.count("alpha"), 1u);
  ASSERT_EQ(SS.Tenants.count("beta"), 1u);
  const TenantServiceStats &TA = SS.Tenants.at("alpha");
  const TenantServiceStats &TB = SS.Tenants.at("beta");
  EXPECT_EQ(TA.Submitted, 2 * A.Test.size());
  EXPECT_EQ(TB.Submitted, 2 * B.Test.size());
  EXPECT_EQ(TA.Completed, TA.Submitted);
  EXPECT_EQ(TB.Completed, TB.Submitted);
  EXPECT_EQ(TA.Submitted + TB.Submitted, SS.Submitted);
  EXPECT_EQ(TA.Completed + TB.Completed, SS.Completed);
  EXPECT_EQ(TA.DriftRejected + TB.DriftRejected, SS.DriftRejected);
  EXPECT_EQ(TA.Latency.Total + TB.Latency.Total, SS.Latency.Total);
  EXPECT_GE(TA.Batches, 1u);
  EXPECT_GE(TB.Batches, 1u);
}

//===----------------------------------------------------------------------===//
// Registry mechanics
//===----------------------------------------------------------------------===//

TEST(FleetTest, LruEvictionRespectsBudgetPinsAndPersistence) {
  TenantFixture &A = alphaFixture();

  // A 1-byte budget: any loaded detector is over it, so every
  // install/load evicts whatever else is evictable.
  RegistryConfig RCfg;
  RCfg.MemoryBudgetBytes = 1;
  DetectorRegistry Registry(RCfg);
  ASSERT_TRUE(Registry.registerTenant("t1", A.spec(freshSnapshotDir("t1"))));
  ASSERT_TRUE(Registry.registerTenant("t2", A.spec(freshSnapshotDir("t2"))));
  ASSERT_TRUE(Registry.registerTenant("mem", A.spec(""))); // No persistence.

  // The tenant being installed is never its own eviction victim.
  ASSERT_TRUE(Registry.installDetector("t1", A.makeEngine()));
  EXPECT_TRUE(Registry.isLoaded("t1"));

  // Installing t2 evicts LRU t1 (saved first).
  ASSERT_TRUE(Registry.installDetector("t2", A.makeEngine()));
  EXPECT_FALSE(Registry.isLoaded("t1"));
  EXPECT_TRUE(Registry.isLoaded("t2"));

  // Reloading t1 under a held lease evicts t2, never the pinned t1.
  {
    DetectorRegistry::Lease L1 = Registry.acquire("t1");
    ASSERT_TRUE(static_cast<bool>(L1));
    EXPECT_EQ(L1.tenant(), "t1");
    EXPECT_FALSE(Registry.isLoaded("t2"));

    // Loading t2 while t1 is pinned: both stay in memory (over budget is
    // preferred to evicting a pinned or unsaveable tenant)...
    DetectorRegistry::Lease L2 = Registry.acquire("t2");
    ASSERT_TRUE(static_cast<bool>(L2));
    EXPECT_TRUE(Registry.isLoaded("t1"));
    EXPECT_TRUE(Registry.isLoaded("t2"));

    // ...and an explicit evict of a pinned tenant is refused.
    EXPECT_FALSE(Registry.evict("t1"));
  }

  // A persistence-disabled tenant can never be evicted — not by the
  // budget sweep, not explicitly — because its state would be lost.
  ASSERT_TRUE(Registry.installDetector("mem", A.makeEngine()));
  EXPECT_FALSE(Registry.evict("mem"));
  DetectorRegistry::Lease L = Registry.acquire("t1"); // Budget sweep runs.
  ASSERT_TRUE(static_cast<bool>(L));
  EXPECT_TRUE(Registry.isLoaded("mem"));

  // Cold/unknown edges.
  EXPECT_FALSE(Registry.evict("t2") && Registry.evict("t2")); // Not twice.
  EXPECT_FALSE(Registry.evict("ghost"));
  EXPECT_FALSE(static_cast<bool>(Registry.acquire("ghost")));
  EXPECT_FALSE(Registry.save("ghost"));
  // "mem" has no snapshot dir: a save request must fail, not no-op.
  EXPECT_FALSE(Registry.save("mem"));

  RegistryStats RS = Registry.stats();
  EXPECT_EQ(RS.RegisteredTenants, 3u);
  EXPECT_GE(RS.Evictions, 2u);
  EXPECT_GT(RS.MemoryBytes, RCfg.MemoryBudgetBytes); // Pins win over budget.
}

TEST(FleetTest, AcquireWithoutSnapshotFailsCleanly) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  // Registered but never installed and with an empty rotation dir: the
  // lazy load has nothing to resolve.
  ASSERT_TRUE(
      Registry.registerTenant("cold", A.spec(freshSnapshotDir("cold"))));
  EXPECT_FALSE(static_cast<bool>(Registry.acquire("cold")));
  EXPECT_EQ(Registry.stats().LoadFailures, 1u);
  // Duplicate registration and null-model specs are refused.
  EXPECT_FALSE(Registry.registerTenant("cold", A.spec("")));
  EXPECT_FALSE(Registry.registerTenant("nullmodel", TenantSpec()));
}

TEST(FleetTest, UnknownTenantShedsWithReason) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  AssessmentService Shared(Registry, ServiceConfig());

  std::future<Verdict> Fut = Shared.submit("ghost", A.Test[0]);
  try {
    Fut.get();
    FAIL() << "unknown tenant must shed";
  } catch (const ShedError &E) {
    EXPECT_EQ(E.reason(), ShedReason::UnknownTenant);
  }
  Shared.drain();
  ServiceStats SS = Shared.stats();
  EXPECT_EQ(SS.ShedUnknownTenant, 1u);
  EXPECT_EQ(SS.shedTotal(), 1u);
  ASSERT_EQ(SS.Tenants.count("ghost"), 1u);
  EXPECT_EQ(SS.Tenants.at("ghost").Shed, 1u);
  EXPECT_EQ(SS.Tenants.at("ghost").Completed, 0u);
}

//===----------------------------------------------------------------------===//
// Per-tenant recalibration controllers
//===----------------------------------------------------------------------===//

TEST(FleetTest, PerTenantControllersRefreshAndSurviveReload) {
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  const std::string Dir = freshSnapshotDir("recal");
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec(Dir)));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));

  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 8; // SnapshotDir inherits the tenant's.
  ASSERT_TRUE(Registry.enableRecalibration("alpha", DriftWindowConfig(), RCfg));
  EXPECT_FALSE(Registry.enableRecalibration("ghost"));

  {
    DetectorRegistry::Lease L = Registry.acquire("alpha");
    ASSERT_TRUE(static_cast<bool>(L));
    ASSERT_NE(L.controller(), nullptr); // Armed on the live entry.
    ASSERT_NE(L.monitor(), nullptr);
    // An empty RecalibrationConfig::SnapshotDir inherits the tenant's.
    EXPECT_EQ(L.controller()->config().SnapshotDir, Dir);

    // Feed relabeled samples through the registry and trigger a refresh.
    for (size_t I = 0; I < 16; ++I)
      ASSERT_TRUE(Registry.submitLabeled("alpha", A.Calib[I]));
    L.controller()->triggerRefresh();
    EXPECT_TRUE(L.controller()->waitForRefreshes(
        1, std::chrono::milliseconds(5000)));
    EXPECT_GE(L.controller()->stats().SamplesFolded, 16u);
  }

  // Eviction tears the controller down with the engine; the reload arms
  // a fresh one against the restored state.
  ASSERT_TRUE(Registry.evict("alpha"));
  EXPECT_FALSE(Registry.submitLabeled("alpha", A.Calib[0])); // Cold tenant.
  DetectorRegistry::Lease L = Registry.acquire("alpha");
  ASSERT_TRUE(static_cast<bool>(L));
  EXPECT_NE(L.controller(), nullptr);
  EXPECT_EQ(L.controller()->stats().RefreshesCompleted, 0u); // Fresh.
  EXPECT_TRUE(Registry.submitLabeled("alpha", A.Calib[0]));
}

TEST(FleetTest, RegistrySaveAndControllerRotationShareOneSequence) {
  // A registry save and a controller rotation write the same directory:
  // the controller's rotation takes the next number instead of rewriting
  // the generation the registry committed.
  TenantFixture &A = alphaFixture();
  DetectorRegistry Registry;
  const std::string Dir = freshSnapshotDir("sequence");
  ASSERT_TRUE(Registry.registerTenant("alpha", A.spec(Dir)));
  ASSERT_TRUE(Registry.installDetector("alpha", A.makeEngine()));
  RecalibrationConfig RCfg;
  RCfg.MinRefreshSamples = 8;
  ASSERT_TRUE(Registry.enableRecalibration("alpha", DriftWindowConfig(), RCfg));

  ASSERT_TRUE(Registry.save("alpha"));
  const std::string Gen1 = Dir + "/" + support::snapshotGenerationFile(1);
  std::ifstream In(Gen1, std::ios::binary);
  const std::vector<char> Saved((std::istreambuf_iterator<char>(In)),
                                std::istreambuf_iterator<char>());
  ASSERT_FALSE(Saved.empty());

  DetectorRegistry::Lease L = Registry.acquire("alpha");
  ASSERT_TRUE(static_cast<bool>(L));
  for (size_t I = 0; I < 8; ++I)
    ASSERT_TRUE(Registry.submitLabeled("alpha", A.Calib[I]));
  L.controller()->triggerRefresh();
  ASSERT_TRUE(
      L.controller()->waitForRefreshes(1, std::chrono::milliseconds(10000)));
  RecalibrationStats Stats = L.controller()->stats();
  EXPECT_EQ(Stats.SnapshotsRotated, 1u);
  EXPECT_EQ(Stats.LastGeneration, 2u);
  EXPECT_EQ(support::listSnapshotGenerations(Dir),
            (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(support::latestPointerGeneration(Dir), 2u);

  std::ifstream Again(Gen1, std::ios::binary);
  const std::vector<char> After((std::istreambuf_iterator<char>(Again)),
                                std::istreambuf_iterator<char>());
  EXPECT_EQ(After, Saved);
}
