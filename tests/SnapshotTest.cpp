//===- tests/SnapshotTest.cpp - detector snapshot round-trips -----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// saveSnapshot()/loadSnapshot() must make restarts free: a detector
// restored from disk produces bit-identical verdicts to the one that
// saved, on a fixed probe set, with exact floating-point equality. The
// loader must also reject — without touching the detector — anything that
// is not a pristine snapshot: missing files, truncations, flipped bytes,
// wrong magic, snapshots of the wrong detector kind, and values no
// detector writes, which saveSnapshot() in turn refuses to write.
//
//===----------------------------------------------------------------------===//

#include "core/CApi.h"
#include "core/Detector.h"
#include "data/Scaler.h"
#include "data/Split.h"
#include "ml/Linear.h"
#include "ml/Mlp.h"
#include "support/Serialize.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

using namespace prom;
using prom::testing::bits;
using prom::testing::expectSameRegressionVerdict;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "/" + Name;
}

std::vector<char> slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::vector<char> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Calibrated classifier + probe set shared by the classifier tests.
struct ClassifierFixture {
  support::Rng R{91};
  data::Dataset Train, Calib, Probes;
  ml::MlpClassifier Model;

  ClassifierFixture() {
    data::Dataset Full = gaussianBlobs(3, 260, 4.0, 0.8, R);
    auto Split = data::calibrationPartition(Full, R, 0.4);
    Train = std::move(Split.first);
    Calib = std::move(Split.second);
    Model.fit(Train, R);
    Probes = gaussianBlobs(3, 20, 4.0, 0.8, R);
    for (int I = 0; I < 20; ++I) {
      data::Sample Novel;
      Novel.Features = {R.gaussian(0.0, 0.7), R.gaussian(0.0, 0.7)};
      Novel.Label = 0;
      Probes.add(std::move(Novel));
    }
  }
};

ClassifierFixture &classifierFixture() {
  static ClassifierFixture F;
  return F;
}

/// Calibration inputs shared by the regressor payload-mutation tests.
struct RegressorFixture {
  support::Rng R{95};
  data::Dataset Train, Calib, Probes;
  ml::MlpRegressor Model;
  PromConfig Cfg;

  RegressorFixture() {
    Train = linearRegression(200, 0.1, R);
    Calib = linearRegression(100, 0.1, R);
    Model.fit(Train, R);
    Probes = linearRegression(30, 0.1, R);
    Cfg.FixedClusters = 3;
  }
  /// Calibrates \p D on Calib with the same clustering seed every time.
  void calibrate(PromRegressor &D) const {
    support::Rng CalR(5);
    D.calibrate(Calib, CalR);
  }
};

RegressorFixture &regressorFixture() {
  static RegressorFixture F;
  return F;
}

/// The payload of the snapshot file at \p Path: the bytes between the
/// 8-byte magic and the 8-byte checksum (docs/SNAPSHOT_FORMAT.md).
std::vector<uint8_t> payloadOf(const std::string &Path) {
  constexpr size_t MagicBytes = 8, SumBytes = 8;
  std::vector<char> File = slurp(Path);
  EXPECT_GT(File.size(), MagicBytes + SumBytes);
  if (File.size() <= MagicBytes + SumBytes)
    return {};
  return std::vector<uint8_t>(File.begin() + MagicBytes,
                              File.end() - SumBytes);
}

/// Writes \p Payload to \p Path through ByteWriter, so the magic and the
/// checksum hold whatever the payload says.
bool rewritePayload(const std::string &Path,
                    const std::vector<uint8_t> &Payload) {
  support::ByteWriter W;
  for (uint8_t B : Payload)
    W.writeU8(B);
  return W.writeFile(Path);
}

/// Offsets of the regressor's fitted state in a v3 payload.
struct RegressorTail {
  size_t Target = 0;          ///< The first target value.
  size_t Centroid = 0;        ///< The first centroid's first value.
  size_t LastCentroidRow = 0; ///< The last centroid row's length prefix.
  size_t Iqr = 0;             ///< The residual IQR.
};

/// A regressor payload saved without a scaler ends with the shard count
/// (u64) and the scaler flag (u8).
constexpr size_t RegressorTrailerBytes = 8 + 1;

/// Walks a v3 snapshot payload (docs/SNAPSHOT_FORMAT.md) to locate single
/// values.
struct PayloadCursor {
  const std::vector<uint8_t> &Bytes;
  size_t Pos = 0;

  template <class T> T read() {
    T V{};
    if (Pos > Bytes.size() || Bytes.size() - Pos < sizeof(V)) {
      ADD_FAILURE() << "walked past the payload: has the layout changed?";
      Pos = Bytes.size();
      return V;
    }
    std::memcpy(&V, Bytes.data() + Pos, sizeof(V));
    Pos += sizeof(V);
    return V;
  }
  /// Skips the version and kind words and the config block: 15
  /// eight-byte fields, the i32 WeightNormPower and u32 WeightMode, the
  /// u8 AutoTau and SmoothedPValues.
  void skipHeaderAndConfig() { Pos += 4 + 4 + 15 * 8 + 2 * 4 + 2 * 1; }
  void skipScorerNames() {
    uint32_t Count = read<uint32_t>();
    for (uint32_t I = 0; I < Count; ++I)
      Pos += read<uint32_t>();
  }
  /// Skips an f64vec; returns the offset of its first value.
  size_t skipVec() {
    uint64_t Len = read<uint64_t>();
    size_t First = Pos;
    Pos += Len * sizeof(double);
    return First;
  }
  /// Skips the entry block; returns the offsets of the first entry's
  /// first embedding value and first score.
  std::pair<size_t, size_t> skipEntries() {
    uint64_t Count = read<uint64_t>();
    size_t Embed = skipVec();
    Pos += sizeof(int32_t);
    size_t Score = skipVec();
    for (uint64_t I = 1; I < Count; ++I) {
      skipVec();
      Pos += sizeof(int32_t);
      skipVec();
    }
    return {Embed, Score};
  }
  /// Skips a regressor payload from its start up to the shard count.
  RegressorTail skipRegressorPayload() {
    skipHeaderAndConfig();
    skipScorerNames();
    skipEntries();
    RegressorTail T;
    T.Target = skipVec();
    uint64_t NumCentroids = read<uint64_t>();
    for (uint64_t I = 0; I < NumCentroids; ++I) {
      T.LastCentroidRow = Pos;
      size_t First = skipVec();
      if (I == 0)
        T.Centroid = First;
    }
    T.Iqr = Pos;
    Pos += sizeof(double);
    return T;
  }
};

/// One payload value to overwrite.
struct PayloadPatch {
  const char *Name;
  size_t Offset;
  double Value;
};

} // namespace

TEST(SnapshotTest, ClassifierRoundTripBitIdentical) {
  ClassifierFixture &F = classifierFixture();

  PromConfig Cfg;
  Cfg.Epsilon = 0.15;
  Cfg.CredThreshold = 0.3;
  Cfg.NumShards = 4;
  PromClassifier Saved(F.Model, Cfg);
  Saved.calibrate(F.Calib);
  std::vector<Verdict> Expected = Saved.assessBatch(F.Probes);

  std::string Path = tempPath("classifier.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  // A fresh wrapper around the same model, default config: everything
  // detector-side must come from the snapshot.
  PromClassifier Loaded(F.Model);
  ASSERT_TRUE(Loaded.loadSnapshot(Path));
  EXPECT_EQ(Loaded.temperature(), Saved.temperature());
  EXPECT_EQ(Loaded.config().Epsilon, 0.15);
  EXPECT_EQ(Loaded.config().CredThreshold, 0.3);
  EXPECT_EQ(Loaded.numExperts(), Saved.numExperts());
  EXPECT_EQ(Loaded.numShards(), Saved.numShards());

  std::vector<Verdict> Restored = Loaded.assessBatch(F.Probes);
  ASSERT_EQ(Restored.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameVerdict(Expected[I], Restored[I], I);
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RegressorRoundTripBitIdentical) {
  support::Rng R(92);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(140, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  PromRegressor Saved(Model, Cfg);
  support::Rng CalR(7);
  Saved.calibrate(Calib, CalR);

  data::Dataset Probes = linearRegression(60, 0.1, R);
  std::vector<RegressionVerdict> Expected = Saved.assessBatch(Probes);

  std::string Path = tempPath("regressor.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  PromRegressor Loaded(Model);
  ASSERT_TRUE(Loaded.loadSnapshot(Path));
  EXPECT_EQ(Loaded.numClusters(), Saved.numClusters());

  std::vector<RegressionVerdict> Restored = Loaded.assessBatch(Probes);
  ASSERT_EQ(Restored.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameRegressionVerdict(Expected[I], Restored[I], I);
  std::remove(Path.c_str());
}

TEST(SnapshotTest, LoadKeepsUnpersistedDeploymentKnobs) {
  // The snapshot persists the calibration-relevant config; the deployment
  // knobs it does not persist must keep the loading detector's values
  // instead of resetting to their defaults on every restart.
  ClassifierFixture &F = classifierFixture();
  PromConfig Cfg;
  Cfg.Epsilon = 0.2;
  PromClassifier Saved(F.Model, Cfg);
  Saved.calibrate(F.Calib);
  std::string Path = tempPath("knobs_classifier.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  PromConfig NoIndex;
  NoIndex.ClusterIndex = false;
  PromClassifier Loaded(F.Model, NoIndex);
  ASSERT_TRUE(Loaded.loadSnapshot(Path));
  EXPECT_FALSE(Loaded.config().ClusterIndex);
  EXPECT_EQ(Loaded.config().Epsilon, 0.2); // Persisted: the snapshot wins.
  std::remove(Path.c_str());

  support::Rng R(93);
  data::Dataset Train = linearRegression(200, 0.1, R);
  data::Dataset Calib = linearRegression(100, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);
  PromConfig RegCfg;
  RegCfg.FixedClusters = 3;
  PromRegressor RegSaved(Model, RegCfg);
  support::Rng CalR(3);
  RegSaved.calibrate(Calib, CalR);
  Path = tempPath("knobs_regressor.promsnap");
  ASSERT_TRUE(RegSaved.saveSnapshot(Path));

  PromConfig NoKnnIndex;
  NoKnnIndex.KnnClusterIndex = false;
  PromRegressor RegLoaded(Model, NoKnnIndex);
  ASSERT_TRUE(RegLoaded.loadSnapshot(Path));
  EXPECT_FALSE(RegLoaded.config().KnnClusterIndex);
  EXPECT_EQ(RegLoaded.config().FixedClusters, 3u);
  std::remove(Path.c_str());
}

TEST(SnapshotTest, ScalerStateRoundTrips) {
  ClassifierFixture &F = classifierFixture();

  data::StandardScaler Scaler;
  Scaler.fit(F.Train);

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  std::string Path = tempPath("with_scaler.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path, &Scaler));

  PromClassifier Loaded(F.Model);
  data::StandardScaler Restored;
  ASSERT_TRUE(Loaded.loadSnapshot(Path, &Restored));
  ASSERT_TRUE(Restored.isFitted());
  ASSERT_EQ(Restored.means().size(), Scaler.means().size());
  for (size_t D = 0; D < Scaler.means().size(); ++D) {
    EXPECT_EQ(Restored.means()[D], Scaler.means()[D]);
    EXPECT_EQ(Restored.stddevs()[D], Scaler.stddevs()[D]);
  }
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RejectsMissingShortCorruptAndWrongKind) {
  ClassifierFixture &F = classifierFixture();

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  std::vector<Verdict> Expected = Saved.assessBatch(F.Probes);

  std::string Path = tempPath("pristine.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));
  std::vector<char> Pristine = slurp(Path);
  ASSERT_GT(Pristine.size(), 64u);

  PromClassifier Victim(F.Model);
  Victim.calibrate(F.Calib);

  // Missing file.
  EXPECT_FALSE(Victim.loadSnapshot(tempPath("does_not_exist.promsnap")));

  // Truncations at several depths, including mid-header and mid-payload.
  std::string Mangled = tempPath("mangled.promsnap");
  for (size_t Keep : {size_t(0), size_t(4), size_t(15), Pristine.size() / 2,
                      Pristine.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(Keep));
    spit(Mangled, std::vector<char>(Pristine.begin(),
                                    Pristine.begin() +
                                        static_cast<long>(Keep)));
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  // A flipped byte anywhere must fail the checksum.
  for (size_t Flip : {size_t(3), size_t(20), Pristine.size() / 2,
                      Pristine.size() - 3}) {
    SCOPED_TRACE("flipped byte " + std::to_string(Flip));
    std::vector<char> Bad = Pristine;
    Bad[Flip] = static_cast<char>(Bad[Flip] ^ 0x5a);
    spit(Mangled, Bad);
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  // Wrong magic.
  {
    std::vector<char> Bad = Pristine;
    Bad[0] = 'X';
    spit(Mangled, Bad);
    EXPECT_FALSE(Victim.loadSnapshot(Mangled));
  }

  // Every failed load above must have left the victim untouched.
  std::vector<Verdict> After = Victim.assessBatch(F.Probes);
  ASSERT_EQ(After.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameVerdict(Expected[I], After[I], I);

  std::remove(Path.c_str());
  std::remove(Mangled.c_str());
}

TEST(SnapshotTest, RejectsConfigsNoDetectorCanRun) {
  // The loader range-checks the config block: knobs that would score NaN
  // (ConfidenceC or Tau at 0), flag every input (Epsilon >= 1), or cast a
  // NaN to an integer (SelectFraction) fail the load, and the loading
  // detector keeps serving its own generation untouched.
  ClassifierFixture &F = classifierFixture();
  PromClassifier Loader(F.Model);
  Loader.calibrate(F.Calib);
  std::vector<Verdict> Expected = Loader.assessBatch(F.Probes);

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  const PromConfig Good = Saved.config();
  constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double Inf = std::numeric_limits<double>::infinity();
  using Mutation = void (*)(PromConfig &);
  const std::pair<const char *, Mutation> Cases[] = {
      {"ConfidenceC = 0", [](PromConfig &C) { C.ConfidenceC = 0.0; }},
      {"Tau = 0 without AutoTau",
       [](PromConfig &C) {
         C.AutoTau = false;
         C.Tau = 0.0;
       }},
      {"Tau = inf", [](PromConfig &C) { C.Tau = Inf; }},
      {"TauScale = -1", [](PromConfig &C) { C.TauScale = -1.0; }},
      {"Epsilon = 1.5", [](PromConfig &C) { C.Epsilon = 1.5; }},
      {"Epsilon = 0", [](PromConfig &C) { C.Epsilon = 0.0; }},
      {"SelectFraction = NaN", [](PromConfig &C) { C.SelectFraction = NaN; }},
      {"SelectFraction = 0", [](PromConfig &C) { C.SelectFraction = 0.0; }},
      {"SelectFraction = 1.5", [](PromConfig &C) { C.SelectFraction = 1.5; }},
      {"WeightNormPower = 3", [](PromConfig &C) { C.WeightNormPower = 3; }},
      {"CredThreshold = NaN", [](PromConfig &C) { C.CredThreshold = NaN; }},
      {"ConfThreshold = inf", [](PromConfig &C) { C.ConfThreshold = Inf; }},
  };
  std::string Path = tempPath("bad_config.promsnap");
  for (const auto &Case : Cases) {
    SCOPED_TRACE(Case.first);
    Case.second(Saved.config());
    ASSERT_TRUE(Saved.saveSnapshot(Path));
    Saved.config() = Good;
    EXPECT_FALSE(Loader.loadSnapshot(Path));
  }
  std::vector<Verdict> After = Loader.assessBatch(F.Probes);
  ASSERT_EQ(After.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameVerdict(Expected[I], After[I], I);

  // The thresholds only need to be finite: NaiveCP disables the
  // confidence test with ConfThreshold = 2.0, and a negative
  // CredThreshold means "use Epsilon".
  Saved.config().ConfThreshold = 2.0;
  Saved.config().CredThreshold = -1.0;
  ASSERT_TRUE(Saved.saveSnapshot(Path));
  PromClassifier Lenient(F.Model);
  EXPECT_TRUE(Lenient.loadSnapshot(Path));
  std::remove(Path.c_str());

  // The regressor additionally needs at least one k-NN neighbour.
  support::Rng R(94);
  data::Dataset Train = linearRegression(200, 0.1, R);
  data::Dataset Calib = linearRegression(100, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);
  PromConfig RegCfg;
  RegCfg.FixedClusters = 3;
  PromRegressor RegSaved(Model, RegCfg), RegLoader(Model, RegCfg);
  support::Rng CalR(3), LoadR(3);
  RegSaved.calibrate(Calib, CalR);
  RegLoader.calibrate(Calib, LoadR);
  data::Dataset Probes = linearRegression(30, 0.1, R);
  std::vector<RegressionVerdict> RegExpected = RegLoader.assessBatch(Probes);
  RegSaved.config().KnnK = 0;
  Path = tempPath("bad_knn.promsnap");
  ASSERT_TRUE(RegSaved.saveSnapshot(Path));
  EXPECT_FALSE(RegLoader.loadSnapshot(Path));
  std::vector<RegressionVerdict> RegAfter = RegLoader.assessBatch(Probes);
  ASSERT_EQ(RegAfter.size(), RegExpected.size());
  for (size_t I = 0; I < RegExpected.size(); ++I)
    expectSameRegressionVerdict(RegExpected[I], RegAfter[I], I);
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RejectsCentroidRowsOfTheWrongWidth) {
  // Assessment scans every pseudo-label centroid against the test
  // embedding, so each centroid row must be exactly as wide as the
  // entries' embeddings. A snapshot whose last centroid row carries one
  // extra value (length prefix bumped, file re-checksummed, so only the
  // shape is wrong) fails the load and leaves the loader untouched.
  RegressorFixture &F = regressorFixture();
  PromRegressor Saved(F.Model, F.Cfg), Loader(F.Model, F.Cfg);
  F.calibrate(Saved);
  F.calibrate(Loader);
  std::vector<RegressionVerdict> Expected = Loader.assessBatch(F.Probes);

  std::string Path = tempPath("wide_centroid.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));
  std::vector<uint8_t> Payload = payloadOf(Path);
  PayloadCursor C{Payload};
  RegressorTail Tail = C.skipRegressorPayload();
  ASSERT_EQ(C.Pos + RegressorTrailerBytes, Payload.size())
      << "fixture layout";
  PayloadCursor Row{Payload, Tail.LastCentroidRow};
  uint64_t Len = Row.read<uint64_t>();
  ASSERT_EQ(Len, F.Model.embed(F.Calib[0]).size())
      << "fixture layout: centroid rows of another width";

  // Control: the untouched payload re-written the same way still loads.
  ASSERT_TRUE(rewritePayload(Path, Payload));
  PromRegressor Control(F.Model);
  ASSERT_TRUE(Control.loadSnapshot(Path));

  ++Len;
  std::memcpy(Payload.data() + Tail.LastCentroidRow, &Len, sizeof(Len));
  double Extra = 0.5;
  uint8_t Raw[sizeof(Extra)];
  std::memcpy(Raw, &Extra, sizeof(Extra));
  Payload.insert(Payload.begin() + static_cast<long>(Tail.Iqr), Raw,
                 Raw + sizeof(Raw));
  ASSERT_TRUE(rewritePayload(Path, Payload));
  EXPECT_FALSE(Loader.loadSnapshot(Path));

  std::vector<RegressionVerdict> After = Loader.assessBatch(F.Probes);
  ASSERT_EQ(After.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameRegressionVerdict(Expected[I], After[I], I);
  std::remove(Path.c_str());
}

TEST(SnapshotTest, RejectsNonFinitePayloadValues) {
  // A checksum proves the bytes arrived intact, not that they are values
  // a detector could have written. Each case overwrites one payload value
  // with NaN, an infinity or an out-of-range number and re-writes the file
  // through ByteWriter so the checksum holds: the load fails and the
  // loader keeps serving its own generation. A control re-write of the
  // untouched payload still loads.
  constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::string Path = tempPath("non_finite.promsnap");
  auto ExpectEachRejected = [&](auto &Loader, auto &Control,
                                const std::vector<uint8_t> &Payload,
                                const std::vector<PayloadPatch> &Patches) {
    ASSERT_TRUE(rewritePayload(Path, Payload));
    ASSERT_TRUE(Control.loadSnapshot(Path));
    for (const PayloadPatch &P : Patches) {
      SCOPED_TRACE(P.Name);
      std::vector<uint8_t> Bad = Payload;
      std::memcpy(Bad.data() + P.Offset, &P.Value, sizeof(double));
      ASSERT_TRUE(rewritePayload(Path, Bad));
      EXPECT_FALSE(Loader.loadSnapshot(Path));
    }
  };

  ClassifierFixture &F = classifierFixture();
  data::StandardScaler Scaler;
  Scaler.fit(F.Train);
  PromClassifier Saved(F.Model), Loader(F.Model), Control(F.Model);
  Saved.calibrate(F.Calib);
  Loader.calibrate(F.Calib);
  std::vector<Verdict> Expected = Loader.assessBatch(F.Probes);
  ASSERT_TRUE(Saved.saveSnapshot(Path, &Scaler));
  std::vector<uint8_t> Payload = payloadOf(Path);
  PayloadCursor C{Payload};
  C.skipHeaderAndConfig();
  size_t Temperature = C.Pos;
  ASSERT_EQ(C.read<double>(), Saved.temperature());
  C.skipScorerNames();
  std::pair<size_t, size_t> Entry = C.skipEntries();
  C.read<uint64_t>(); // The shard count.
  ASSERT_EQ(C.read<uint8_t>(), 1u) << "fixture layout: no scaler block";
  size_t Mean = C.skipVec();
  size_t Stddev = C.skipVec();
  ASSERT_EQ(C.Pos, Payload.size()) << "fixture layout";
  ExpectEachRejected(Loader, Control, Payload,
                     {{"temperature NaN", Temperature, NaN},
                      {"temperature 0", Temperature, 0.0},
                      {"embedding +inf", Entry.first, Inf},
                      {"score NaN", Entry.second, NaN},
                      {"scaler mean NaN", Mean, NaN},
                      {"scaler stddev 0", Stddev, 0.0},
                      {"scaler stddev +inf", Stddev, Inf}});
  std::vector<Verdict> After = Loader.assessBatch(F.Probes);
  ASSERT_EQ(After.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    expectSameVerdict(Expected[I], After[I], I);

  RegressorFixture &RF = regressorFixture();
  PromRegressor RegSaved(RF.Model, RF.Cfg), RegLoader(RF.Model, RF.Cfg),
      RegControl(RF.Model);
  RF.calibrate(RegSaved);
  RF.calibrate(RegLoader);
  std::vector<RegressionVerdict> RegExpected =
      RegLoader.assessBatch(RF.Probes);
  ASSERT_TRUE(RegSaved.saveSnapshot(Path));
  Payload = payloadOf(Path);
  PayloadCursor RC{Payload};
  RegressorTail Tail = RC.skipRegressorPayload();
  ASSERT_EQ(RC.Pos + RegressorTrailerBytes, Payload.size())
      << "fixture layout";
  ExpectEachRejected(RegLoader, RegControl, Payload,
                     {{"target -inf", Tail.Target, -Inf},
                      {"centroid NaN", Tail.Centroid, NaN},
                      {"residual IQR +inf", Tail.Iqr, Inf},
                      {"residual IQR -1", Tail.Iqr, -1.0}});
  std::vector<RegressionVerdict> RegAfter = RegLoader.assessBatch(RF.Probes);
  ASSERT_EQ(RegAfter.size(), RegExpected.size());
  for (size_t I = 0; I < RegExpected.size(); ++I)
    expectSameRegressionVerdict(RegExpected[I], RegAfter[I], I);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Snapshot rotation (generation files + `latest` pointer)
//===----------------------------------------------------------------------===//

namespace {

/// A fresh rotation directory under the test tmpdir.
std::string rotationDir(const std::string &Name) {
  std::string Dir = tempPath(Name);
  // Clear any leftovers from a previous run of the same test binary.
  for (uint64_t Gen : support::listSnapshotGenerations(Dir))
    std::remove((Dir + "/" + support::snapshotGenerationFile(Gen)).c_str());
  std::remove((Dir + "/latest").c_str());
  EXPECT_TRUE(support::ensureDirectory(Dir));
  return Dir;
}

/// Writes a minimal valid (checksummed) generation file.
void writeGeneration(const std::string &Dir, uint64_t Gen) {
  support::ByteWriter W;
  W.writeU64(Gen); // Payload content is irrelevant to rotation.
  ASSERT_TRUE(
      W.writeFile(Dir + "/" + support::snapshotGenerationFile(Gen)));
}

} // namespace

TEST(SnapshotTest, RotationCrashBeforePointerCommitServesOldGeneration) {
  ClassifierFixture &F = classifierFixture();
  std::string Dir = rotationDir("rotation_crash");

  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);

  // Generation 1 fully committed.
  ASSERT_TRUE(Saved.saveSnapshot(
      Dir + "/" + support::snapshotGenerationFile(1)));
  ASSERT_TRUE(support::commitLatestPointer(Dir, 1));
  EXPECT_EQ(support::latestPointerGeneration(Dir), 1u);

  // Generation 2 written but the process "crashed" before the pointer
  // update: the committed generation 1 must still be served.
  ASSERT_TRUE(Saved.saveSnapshot(
      Dir + "/" + support::snapshotGenerationFile(2)));
  EXPECT_EQ(support::resolveLatestSnapshot(Dir),
            Dir + "/" + support::snapshotGenerationFile(1));

  // Pointer gone stale (its generation corrupted on disk): resolution
  // falls back to the newest generation that still loads — generation 2.
  {
    std::string Gen1 = Dir + "/" + support::snapshotGenerationFile(1);
    std::vector<char> Bytes = slurp(Gen1);
    ASSERT_GT(Bytes.size(), 16u);
    Bytes[Bytes.size() / 2] ^= 0x5a;
    spit(Gen1, Bytes);
  }
  std::string Resolved = support::resolveLatestSnapshot(Dir);
  EXPECT_EQ(Resolved, Dir + "/" + support::snapshotGenerationFile(2));

  // And the fallback is actually loadable into a serving detector.
  PromClassifier Restored(F.Model);
  EXPECT_TRUE(Restored.loadSnapshot(Resolved));
  EXPECT_EQ(Restored.calibrationSize(), Saved.calibrationSize());

  // Nothing valid left at all: resolution reports none rather than
  // handing a corrupt path to the loader.
  std::remove(Resolved.c_str());
  EXPECT_EQ(support::resolveLatestSnapshot(Dir), "");
}

TEST(SnapshotTest, RotationPruneNeverDeletesPointedGeneration) {
  std::string Dir = rotationDir("rotation_prune");

  for (uint64_t Gen = 1; Gen <= 5; ++Gen)
    writeGeneration(Dir, Gen);
  // The pointer still names an old generation (e.g. the newer writes were
  // never committed); pruning must keep it alive alongside the newest.
  ASSERT_TRUE(support::commitLatestPointer(Dir, 2));

  size_t Removed = support::pruneSnapshotGenerations(Dir, /*KeepCount=*/2);
  EXPECT_EQ(Removed, 2u); // 1 and 3 go; 2 (pointed), 4, 5 stay.
  std::vector<uint64_t> Left = support::listSnapshotGenerations(Dir);
  ASSERT_EQ(Left.size(), 3u);
  EXPECT_EQ(Left[0], 2u);
  EXPECT_EQ(Left[1], 4u);
  EXPECT_EQ(Left[2], 5u);
  EXPECT_EQ(support::resolveLatestSnapshot(Dir),
            Dir + "/" + support::snapshotGenerationFile(2));

  // Once a newer generation is committed, the old one becomes prunable.
  ASSERT_TRUE(support::commitLatestPointer(Dir, 5));
  Removed = support::pruneSnapshotGenerations(Dir, /*KeepCount=*/1);
  EXPECT_EQ(Removed, 2u); // 2 and 4 go.
  Left = support::listSnapshotGenerations(Dir);
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left[0], 5u);
}

TEST(SnapshotTest, RotationKeepsLatestWhenASaveWouldNotLoad) {
  // saveSnapshot refuses to write a value loadSnapshot would reject, so a
  // rotation never commits an unloadable generation. Through the C ABI, a
  // detector calibrated with one NaN probability row still finalizes, but
  // prom_save fails: `latest` keeps naming the previous generation, no
  // generation is added or pruned, and prom_open restores that one.
  ClassifierFixture &F = classifierFixture();
  std::string Dir = rotationDir("rotation_non_finite");
  int NumClasses = 3;
  int Dim = static_cast<int>(F.Calib[0].Features.size());
  auto Calibrated = [&](bool PoisonFirstRow) {
    prom_detector *D = prom_create(NumClasses, Dim, 0.1);
    for (size_t I = 0; I < F.Calib.size(); ++I) {
      std::vector<double> P = F.Model.predictProba(F.Calib[I]);
      if (PoisonFirstRow && I == 0)
        P.assign(P.size(), std::numeric_limits<double>::quiet_NaN());
      EXPECT_EQ(prom_add_calibration(D, P.data(), F.Calib[I].Features.data(),
                                     F.Calib[I].Label),
                0);
    }
    EXPECT_EQ(prom_finalize(D), 0);
    return D;
  };

  prom_detector *Good = Calibrated(false);
  ASSERT_NE(Good, nullptr);
  ASSERT_EQ(prom_save(Good, Dir.c_str()), 0);
  uint64_t Committed = support::latestPointerGeneration(Dir);
  std::vector<uint64_t> Generations = support::listSnapshotGenerations(Dir);

  prom_detector *Poisoned = Calibrated(true);
  ASSERT_NE(Poisoned, nullptr);
  EXPECT_EQ(prom_save(Poisoned, Dir.c_str()), -1);
  EXPECT_EQ(support::latestPointerGeneration(Dir), Committed);
  EXPECT_EQ(support::listSnapshotGenerations(Dir), Generations);

  prom_detector *Reopened = prom_open(NumClasses, Dim, 0.1, Dir.c_str());
  ASSERT_NE(Reopened, nullptr);
  for (const data::Sample &S : F.Probes.samples()) {
    std::vector<double> P = F.Model.predictProba(S);
    double CredGood = 0.0, CredReopened = 1.0;
    EXPECT_EQ(prom_should_reject(Good, P.data(), S.Features.data(),
                                 &CredGood, nullptr),
              prom_should_reject(Reopened, P.data(), S.Features.data(),
                                 &CredReopened, nullptr));
    EXPECT_EQ(bits(CredGood), bits(CredReopened));
  }
  prom_destroy(Reopened);
  prom_destroy(Poisoned);
  prom_destroy(Good);
}

TEST(SnapshotTest, WrongKindRejected) {
  ClassifierFixture &F = classifierFixture();
  PromClassifier Saved(F.Model);
  Saved.calibrate(F.Calib);
  std::string Path = tempPath("kind.promsnap");
  ASSERT_TRUE(Saved.saveSnapshot(Path));

  support::Rng R(5);
  data::Dataset RTrain = linearRegression(200, 0.1, R);
  data::Dataset RCalib = linearRegression(80, 0.1, R);
  ml::MlpRegressor RModel;
  RModel.fit(RTrain, R);
  PromRegressor Reg(RModel);
  EXPECT_FALSE(Reg.loadSnapshot(Path));
  std::remove(Path.c_str());
}
