//===- tests/BatchEquivalenceTest.cpp - batch/serial bit-equivalence ----------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batched engine must be a pure performance transformation, enforced at
// two levels:
//
//  * Model level — a parameterized cross-model harness instantiates EVERY
//    ml::Classifier and ml::Regressor subclass from a central registry and
//    checks predictProbaBatch / predictBatch / embedBatch /
//    predictWithEmbedBatch against the per-sample forms with exact
//    floating-point equality, at batch size 1, odd-tail sizes, and the full
//    pool. A new model cannot ship with a batch path that diverges from its
//    per-sample path without extending the registry — and CMake runs this
//    suite pinned to PROM_THREADS=1 and 4, so the contract holds at every
//    thread count.
//
//  * Committee level — assessBatch() over a whole deployment set, the
//    delegating per-sample assess(), and the serial oracle of
//    tests/SerialOracle.h (which re-derives each verdict from the paper)
//    have to produce bit-identical verdicts, including over the
//    tree-ensemble and k-NN experts that exercise the canonical
//    ascending-tree merge and the shared k-NN tie-break rule, and over the
//    store's cluster-pruned index at its shipped threshold.
//
//===----------------------------------------------------------------------===//

#include "core/Detector.h"
#include "data/Split.h"
#include "ml/AttentionPool.h"
#include "ml/Gcn.h"
#include "ml/GradientBoosting.h"
#include "ml/Knn.h"
#include "ml/Linear.h"
#include "ml/Lstm.h"
#include "ml/Mlp.h"
#include "ml/RandomForest.h"
#include "support/Rng.h"
#include "tests/SerialOracle.h"
#include "tests/TestHelpers.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>

using namespace prom;
using prom::testing::bits;
using prom::testing::expectSameRegressionVerdict;
using prom::testing::expectSameVerdict;
using prom::testing::gaussianBlobs;
using prom::testing::linearRegression;
using prom::testing::oracleAssess;
using prom::testing::oracleCalibrationScores;
using prom::testing::tokenBlobs;

namespace {

/// Runs the full three-way equivalence check for one calibrated classifier
/// over a test set that mixes in-distribution and novel samples.
void checkClassifierEquivalence(const PromClassifier &Prom,
                                const data::Dataset &Test) {
  std::vector<Verdict> Batched = Prom.assessBatch(Test);
  ASSERT_EQ(Batched.size(), Test.size());
  for (size_t I = 0; I < Test.size(); ++I) {
    Verdict Serial = oracleAssess(Prom, Test[I]);
    Verdict Single = Prom.assess(Test[I]);
    expectSameVerdict(Serial, Batched[I], I);
    expectSameVerdict(Single, Batched[I], I);
  }
}

/// Blobs plus far-out novel points, so drift flags actually fire.
data::Dataset mixedTestSet(size_t N, support::Rng &R) {
  data::Dataset Test("mixed", 3);
  for (size_t I = 0; I < N; ++I) {
    if (I % 4 == 0) {
      data::Sample Novel;
      Novel.Features = {R.gaussian(0.0, 0.8), R.gaussian(0.0, 0.8)};
      Novel.Label = 0;
      Test.add(std::move(Novel));
    } else {
      Test.add(gaussianBlobs(3, 1, 4.0, 0.8, R)[0]);
    }
  }
  return Test;
}

data::Dataset graphBlobs(size_t PerClass, support::Rng &R) {
  data::Dataset Data("graphs", 2);
  for (int C = 0; C < 2; ++C)
    for (size_t I = 0; I < PerClass; ++I) {
      data::Sample S;
      data::Graph &G = S.ProgramGraph;
      G.NumNodes = 6;
      G.FeatDim = 3;
      G.NodeFeats.assign(18, 0.0);
      for (int V = 0; V < 6; ++V) {
        int Kind = R.bernoulli(0.8) ? C : 1 - C;
        G.NodeFeats[static_cast<size_t>(V) * 3 + Kind] = 1.0;
        G.NodeFeats[static_cast<size_t>(V) * 3 + 2] = R.uniform();
      }
      for (int V = 0; V + 1 < 6; ++V)
        G.Edges.push_back({V, V + 1});
      S.Features = {static_cast<double>(C)};
      S.Label = C;
      Data.add(std::move(S));
    }
  return Data;
}

//===----------------------------------------------------------------------===//
// The cross-model registry
//===----------------------------------------------------------------------===//

/// Input modality a model consumes; decides which fixture datasets the
/// harness builds for it.
enum class DataKind { Tabular, Graph, Token };

/// Small training configs keep the sweep fast without changing what is
/// being proven (the batch/serial contract is config-independent).
ml::LstmConfig smallLstmConfig(bool Bidirectional) {
  ml::LstmConfig Cfg;
  Cfg.EmbedDim = 6;
  Cfg.HiddenDim = 6;
  Cfg.MaxSeqLen = 10;
  Cfg.Epochs = 2;
  Cfg.Bidirectional = Bidirectional;
  return Cfg;
}

ml::AttentionConfig smallAttentionConfig() {
  ml::AttentionConfig Cfg;
  Cfg.EmbedDim = 8;
  Cfg.AttnDim = 8;
  Cfg.HiddenDim = 10;
  Cfg.MaxSeqLen = 12;
  Cfg.Epochs = 2;
  return Cfg;
}

ml::ForestConfig smallForestConfig() {
  ml::ForestConfig Cfg;
  Cfg.NumTrees = 15;
  Cfg.Tree.MaxDepth = 6;
  return Cfg;
}

ml::BoostConfig smallBoostConfig() {
  ml::BoostConfig Cfg;
  Cfg.Rounds = 12;
  return Cfg;
}

/// A model with NO batch overrides: inherits every Model.h default
/// per-sample loop (predictProbaBatch / embedBatch / the combined
/// predictWithEmbedBatch). Registered in the harness so the documented
/// fallback path of the batch contract keeps equivalence coverage even
/// though every shipped model now overrides it.
class FallbackOnlyClassifier : public ml::Classifier {
public:
  void fit(const data::Dataset &Train, support::Rng &R) override {
    Inner.fit(Train, R);
  }
  std::vector<double> predictProba(const data::Sample &S) const override {
    return Inner.predictProba(S);
  }
  int numClasses() const override { return Inner.numClasses(); }
  std::string name() const override { return "fallback-probe"; }

private:
  ml::KnnClassifier Inner{3};
};

/// Regressor analogue of FallbackOnlyClassifier.
class FallbackOnlyRegressor : public ml::Regressor {
public:
  void fit(const data::Dataset &Train, support::Rng &R) override {
    Inner.fit(Train, R);
  }
  double predict(const data::Sample &S) const override {
    return Inner.predict(S);
  }
  std::string name() const override { return "fallback-probe-reg"; }

private:
  ml::KnnRegressor Inner{3};
};

/// One classifier entry: display name, factory, input modality.
///
/// EVERY concrete ml::Classifier must appear here — this registry is what
/// makes "no model ships without a batch-equivalence check" enforceable.
struct ClassifierCase {
  const char *Name;
  std::function<std::unique_ptr<ml::Classifier>()> Make;
  DataKind Kind;
};

const std::vector<ClassifierCase> &classifierCases() {
  static const std::vector<ClassifierCase> Cases = {
      {"Mlp", [] { return std::make_unique<ml::MlpClassifier>(); },
       DataKind::Tabular},
      {"LogisticRegression",
       [] { return std::make_unique<ml::LogisticRegression>(); },
       DataKind::Tabular},
      {"LinearSvm", [] { return std::make_unique<ml::LinearSvm>(); },
       DataKind::Tabular},
      {"Knn", [] { return std::make_unique<ml::KnnClassifier>(5); },
       DataKind::Tabular},
      {"KnnIndexed",
       [] {
         // MinPoints=1 forces the cluster index even on the small
         // fixture, so the batch path under test is nearestPrunedBatch.
         auto Model = std::make_unique<ml::KnnClassifier>(5);
         Model->setAutoIndex(1);
         return Model;
       },
       DataKind::Tabular},
      {"RandomForest",
       [] {
         return std::make_unique<ml::RandomForestClassifier>(
             smallForestConfig());
       },
       DataKind::Tabular},
      {"GradientBoosting",
       [] {
         return std::make_unique<ml::GradientBoostingClassifier>(
             smallBoostConfig());
       },
       DataKind::Tabular},
      {"Gcn", [] { return std::make_unique<ml::GcnClassifier>(); },
       DataKind::Graph},
      {"Lstm",
       [] { return std::make_unique<ml::LstmClassifier>(smallLstmConfig(false)); },
       DataKind::Token},
      {"BiLstm",
       [] { return std::make_unique<ml::LstmClassifier>(smallLstmConfig(true)); },
       DataKind::Token},
      {"Attention",
       [] {
         return std::make_unique<ml::AttentionClassifier>(
             smallAttentionConfig());
       },
       DataKind::Token},
      {"DefaultFallbackLoops",
       [] { return std::make_unique<FallbackOnlyClassifier>(); },
       DataKind::Tabular},
  };
  return Cases;
}

/// One regressor entry; same registry obligation as ClassifierCase.
struct RegressorCase {
  const char *Name;
  std::function<std::unique_ptr<ml::Regressor>()> Make;
  DataKind Kind;
};

const std::vector<RegressorCase> &regressorCases() {
  static const std::vector<RegressorCase> Cases = {
      {"MlpRegressor", [] { return std::make_unique<ml::MlpRegressor>(); },
       DataKind::Tabular},
      {"KnnRegressor", [] { return std::make_unique<ml::KnnRegressor>(5); },
       DataKind::Tabular},
      {"KnnRegressorIndexed",
       [] {
         auto Model = std::make_unique<ml::KnnRegressor>(5);
         Model->setAutoIndex(1);
         return Model;
       },
       DataKind::Tabular},
      {"GradientBoostingRegressor",
       [] {
         return std::make_unique<ml::GradientBoostingRegressor>(
             smallBoostConfig());
       },
       DataKind::Tabular},
      {"AttentionRegressor",
       [] {
         return std::make_unique<ml::AttentionRegressor>(
             smallAttentionConfig());
       },
       DataKind::Token},
      {"DefaultFallbackLoops",
       [] { return std::make_unique<FallbackOnlyRegressor>(); },
       DataKind::Tabular},
  };
  return Cases;
}

/// Training set for one modality.
data::Dataset makeTrainSet(DataKind Kind, bool ForRegression,
                           support::Rng &R) {
  switch (Kind) {
  case DataKind::Tabular:
    if (ForRegression)
      return linearRegression(150, 0.1, R);
    return gaussianBlobs(3, 60, 4.0, 0.8, R);
  case DataKind::Graph:
    return graphBlobs(50, R);
  case DataKind::Token: {
    data::Dataset Data = tokenBlobs(3, 25, 10, R);
    if (ForRegression)
      for (auto &S : Data.samples())
        S.Target = static_cast<double>(S.Label) + 0.25;
    return Data;
  }
  }
  return data::Dataset();
}

/// Deployment pool for one modality. Deliberately 61 samples: prime, so
/// every ThreadPool chunking of the full pool has odd tails.
data::Dataset makeTestPool(DataKind Kind, bool ForRegression,
                           support::Rng &R) {
  const size_t PoolSize = 61;
  data::Dataset Source = makeTrainSet(Kind, ForRegression, R);
  data::Dataset Pool(Source.name(), Source.numClasses(),
                     Source.vocabSize());
  for (size_t I = 0; I < PoolSize; ++I)
    Pool.add(Source[I % Source.size()]);
  return Pool;
}

/// First \p N samples of \p Pool as a batch.
data::Dataset takePrefix(const data::Dataset &Pool, size_t N) {
  data::Dataset Out(Pool.name(), Pool.numClasses(), Pool.vocabSize());
  for (size_t I = 0; I < N; ++I)
    Out.add(Pool[I]);
  return Out;
}

/// Batch sizes swept per model: a single sample, an odd tail smaller than
/// any chunking threshold, and the full (prime-sized) pool.
const size_t BatchSizes[] = {1, 7, 61};

} // namespace

//===----------------------------------------------------------------------===//
// Parameterized cross-model harness
//===----------------------------------------------------------------------===//

class ClassifierBatchEquivalence
    : public ::testing::TestWithParam<size_t> {};

TEST_P(ClassifierBatchEquivalence, BatchMatchesPerSample) {
  const ClassifierCase &Case = classifierCases()[GetParam()];
  support::Rng R(9000 + GetParam());
  data::Dataset Train = makeTrainSet(Case.Kind, /*ForRegression=*/false, R);
  std::unique_ptr<ml::Classifier> Model = Case.Make();
  Model->fit(Train, R);

  data::Dataset Pool = makeTestPool(Case.Kind, /*ForRegression=*/false, R);
  for (size_t BatchSize : BatchSizes) {
    SCOPED_TRACE("batch size " + std::to_string(BatchSize));
    data::Dataset Batch = takePrefix(Pool, BatchSize);

    support::Matrix Probs = Model->predictProbaBatch(Batch);
    support::Matrix Embeds = Model->embedBatch(Batch);
    support::Matrix Probs2, Embeds2;
    Model->predictWithEmbedBatch(Batch, Probs2, Embeds2);

    ASSERT_EQ(Probs.rows(), Batch.size());
    ASSERT_EQ(Embeds.rows(), Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      SCOPED_TRACE("sample " + std::to_string(I));
      std::vector<double> P = Model->predictProba(Batch[I]);
      std::vector<double> E = Model->embed(Batch[I]);
      ASSERT_EQ(P.size(), Probs.cols());
      ASSERT_EQ(E.size(), Embeds.cols());
      for (size_t C = 0; C < P.size(); ++C) {
        EXPECT_EQ(bits(P[C]), bits(Probs.at(I, C)));
        EXPECT_EQ(bits(P[C]), bits(Probs2.at(I, C)));
      }
      for (size_t D = 0; D < E.size(); ++D) {
        EXPECT_EQ(bits(E[D]), bits(Embeds.at(I, D)));
        EXPECT_EQ(bits(E[D]), bits(Embeds2.at(I, D)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ClassifierBatchEquivalence,
    ::testing::Range(size_t(0), classifierCases().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return classifierCases()[Info.param].Name;
    });

class RegressorBatchEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(RegressorBatchEquivalence, BatchMatchesPerSample) {
  const RegressorCase &Case = regressorCases()[GetParam()];
  support::Rng R(9100 + GetParam());
  data::Dataset Train = makeTrainSet(Case.Kind, /*ForRegression=*/true, R);
  std::unique_ptr<ml::Regressor> Model = Case.Make();
  Model->fit(Train, R);

  data::Dataset Pool = makeTestPool(Case.Kind, /*ForRegression=*/true, R);
  for (size_t BatchSize : BatchSizes) {
    SCOPED_TRACE("batch size " + std::to_string(BatchSize));
    data::Dataset Batch = takePrefix(Pool, BatchSize);

    std::vector<double> Preds = Model->predictBatch(Batch);
    support::Matrix Embeds = Model->embedBatch(Batch);
    std::vector<double> Preds2;
    support::Matrix Embeds2;
    Model->predictWithEmbedBatch(Batch, Preds2, Embeds2);

    ASSERT_EQ(Preds.size(), Batch.size());
    ASSERT_EQ(Embeds.rows(), Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      SCOPED_TRACE("sample " + std::to_string(I));
      EXPECT_EQ(bits(Model->predict(Batch[I])), bits(Preds[I]));
      EXPECT_EQ(bits(Preds[I]), bits(Preds2[I]));
      std::vector<double> E = Model->embed(Batch[I]);
      ASSERT_EQ(E.size(), Embeds.cols());
      for (size_t D = 0; D < E.size(); ++D) {
        EXPECT_EQ(bits(E[D]), bits(Embeds.at(I, D)));
        EXPECT_EQ(bits(E[D]), bits(Embeds2.at(I, D)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, RegressorBatchEquivalence,
    ::testing::Range(size_t(0), regressorCases().size()),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return regressorCases()[Info.param].Name;
    });

//===----------------------------------------------------------------------===//
// Classifier committee equivalence
//===----------------------------------------------------------------------===//

TEST(BatchEquivalenceTest, MlpClassifierBitIdentical) {
  support::Rng R(45);
  data::Dataset Full = gaussianBlobs(3, 300, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.3);
  ml::MlpClassifier Model;
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  checkClassifierEquivalence(Prom, mixedTestSet(120, R));
}

TEST(BatchEquivalenceTest, KnnClassifierCommitteeBitIdentical) {
  // The batched kNN forward (one l2SqMxN scan + shared tie-break) must
  // stay bit-identical through the whole committee, drift flags included.
  support::Rng R(53);
  data::Dataset Full = gaussianBlobs(3, 260, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.4);
  ml::KnnClassifier Model(5);
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  checkClassifierEquivalence(Prom, mixedTestSet(100, R));
}

TEST(BatchEquivalenceTest, IndexedKnnPrunedStoreCommitteeBitIdentical) {
  // Pruned paths end to end: the expert's forwards go through
  // nearestPrunedBatch (auto-index at MinPoints=1) AND the store's
  // selection routes through the cluster-pruned scan (the
  // calibration set is past support::ClusterIndexMinEntries, so the
  // store's index is built at the shipped threshold; SelectFraction <=
  // MaxSelectFraction so routing actually fires). The oracle's exact scan
  // is the reference.
  support::Rng R(57);
  data::Dataset Train = gaussianBlobs(3, 160, 4.0, 0.8, R);
  data::Dataset Calib = gaussianBlobs(3, 2800, 4.0, 0.8, R);
  ASSERT_GE(Calib.size(), support::ClusterIndexMinEntries);
  ml::KnnClassifier Model(5);
  Model.setAutoIndex(1);
  Model.fit(Train, R);
  ASSERT_TRUE(Model.hasClusterIndex());

  PromConfig Cfg;
  Cfg.SelectFraction = 0.2;
  Cfg.SelectAllBelow = 16;
  PromClassifier Prom(Model, Cfg);
  Prom.calibrate(Calib);
  // A fixture under the threshold would silently test the exact scan.
  ASSERT_TRUE(Prom.pin()->Store.indexed());
  checkClassifierEquivalence(Prom, mixedTestSet(100, R));
}

TEST(BatchEquivalenceTest, RandomForestCommitteeBitIdentical) {
  // Exercises the canonical ascending-tree vote merge under the
  // ThreadPool fan-out across trees.
  support::Rng R(54);
  data::Dataset Full = gaussianBlobs(3, 260, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.4);
  ml::RandomForestClassifier Model(smallForestConfig());
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  checkClassifierEquivalence(Prom, mixedTestSet(100, R));
}

TEST(BatchEquivalenceTest, GradientBoostingCommitteeBitIdentical) {
  // Exercises the ascending-round stage merge of the boosted ensemble.
  support::Rng R(55);
  data::Dataset Full = gaussianBlobs(3, 260, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.4);
  ml::GradientBoostingClassifier Model(smallBoostConfig());
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  checkClassifierEquivalence(Prom, mixedTestSet(100, R));
}

TEST(BatchEquivalenceTest, SubsetSelectionRegimeBitIdentical) {
  // > SelectAllBelow calibration samples: the nearest-50% partition (and
  // the distance weights) are exercised, not the select-all shortcut.
  support::Rng R(46);
  data::Dataset Full = gaussianBlobs(3, 300, 4.0, 0.9, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.5);
  ASSERT_GE(Calib.size(), 200u);
  ml::LogisticRegression Model;
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  checkClassifierEquivalence(Prom, mixedTestSet(150, R));
}

TEST(BatchEquivalenceTest, EveryWeightModeBitIdentical) {
  support::Rng R(47);
  data::Dataset Full = gaussianBlobs(3, 250, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.4);
  ml::LogisticRegression Model;
  Model.fit(Train, R);

  for (CalibrationWeightMode Mode :
       {CalibrationWeightMode::WeightedCount,
        CalibrationWeightMode::ScoreScaling, CalibrationWeightMode::None}) {
    SCOPED_TRACE(static_cast<int>(Mode));
    PromConfig Cfg;
    Cfg.WeightMode = Mode;
    PromClassifier Prom(Model, Cfg);
    Prom.calibrate(Calib);
    checkClassifierEquivalence(Prom, mixedTestSet(80, R));
  }
}

TEST(BatchEquivalenceTest, UnsmoothedAndUnanimityConfigsBitIdentical) {
  support::Rng R(48);
  data::Dataset Full = gaussianBlobs(3, 220, 4.0, 0.8, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.3);
  ml::LogisticRegression Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.SmoothedPValues = false;
  Cfg.MinVotesToFlag = 4;
  Cfg.AutoTau = false;
  Cfg.Tau = 100.0;
  PromClassifier Prom(Model, Cfg);
  Prom.calibrate(Calib);
  checkClassifierEquivalence(Prom, mixedTestSet(80, R));
}

TEST(BatchEquivalenceTest, GcnClassifierBitIdentical) {
  support::Rng R(49);
  data::Dataset Full = graphBlobs(130, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.3);
  ml::GcnClassifier Model;
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  data::Dataset Test = graphBlobs(40, R);
  checkClassifierEquivalence(Prom, Test);
}

TEST(BatchEquivalenceTest, LstmPromCommitteeBitIdentical) {
  // The committee contract must hold end-to-end over a sequence model's
  // batched forwards too.
  support::Rng R(65);
  ml::LstmClassifier Model(smallLstmConfig(false));
  data::Dataset Full = tokenBlobs(3, 60, 10, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.4);
  Model.fit(Train, R);

  PromClassifier Prom(Model);
  Prom.calibrate(Calib);
  data::Dataset Test = tokenBlobs(3, 15, 10, R);
  checkClassifierEquivalence(Prom, Test);
}

//===----------------------------------------------------------------------===//
// Regressor committee equivalence
//===----------------------------------------------------------------------===//

TEST(BatchEquivalenceTest, MlpRegressorBitIdentical) {
  support::Rng R(50);
  data::Dataset Train = linearRegression(400, 0.1, R);
  data::Dataset Calib = linearRegression(150, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  PromConfig Cfg;
  Cfg.FixedClusters = 4;
  PromRegressor Prom(Model, Cfg);
  Prom.calibrate(Calib, R);

  // Mix of in-distribution and shifted inputs.
  data::Dataset Test("reg-mixed", 0);
  for (int I = 0; I < 120; ++I) {
    data::Sample S;
    double Lo = I % 3 == 0 ? 5.0 : -2.0, Hi = I % 3 == 0 ? 9.0 : 2.0;
    S.Features = {R.uniform(Lo, Hi), R.uniform(Lo, Hi)};
    S.Target = 2.0 * S.Features[0] - S.Features[1];
    Test.add(std::move(S));
  }

  std::vector<RegressionVerdict> Batched = Prom.assessBatch(Test);
  ASSERT_EQ(Batched.size(), Test.size());
  for (size_t I = 0; I < Test.size(); ++I) {
    RegressionVerdict Serial = oracleAssess(Prom, Test[I]);
    RegressionVerdict Single = Prom.assess(Test[I]);
    expectSameRegressionVerdict(Serial, Batched[I], I);
    expectSameRegressionVerdict(Single, Batched[I], I);
  }
}

TEST(BatchEquivalenceTest, KnnRegressorBatchPathBitIdentical) {
  support::Rng R(51);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(120, 0.1, R);
  ml::KnnRegressor Model(5);
  Model.fit(Train, R);

  PromRegressor Prom(Model);
  Prom.calibrate(Calib, R);
  data::Dataset Test = linearRegression(80, 0.1, R);

  std::vector<RegressionVerdict> Batched = Prom.assessBatch(Test);
  for (size_t I = 0; I < Test.size(); ++I)
    expectSameRegressionVerdict(oracleAssess(Prom, Test[I]), Batched[I], I);
}

TEST(BatchEquivalenceTest, KnnRegressorWithANaNCalibrationRowMatchesOracle) {
  // Calibration row 0 has a NaN feature, so its distance to every query is
  // NaN. The exact k-NN ranks by (distance bits, id), as the oracle and the
  // store's cut do, so the NaN row ranks last and stays out of every
  // query's neighbours.
  support::Rng R(59);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(150, 0.1, R);
  Calib.samples()[0].Features[0] = std::numeric_limits<double>::quiet_NaN();
  ml::KnnRegressor Model(5);
  Model.fit(Train, R);

  PromRegressor Prom(Model);
  Prom.calibrate(Calib, R);
  data::Dataset Test = linearRegression(60, 0.1, R);

  std::vector<RegressionVerdict> Batched = Prom.assessBatch(Test);
  ASSERT_EQ(Batched.size(), Test.size());
  for (size_t I = 0; I < Test.size(); ++I)
    expectSameRegressionVerdict(oracleAssess(Prom, Test[I]), Batched[I], I);
}

TEST(BatchEquivalenceTest, IndexedRegressorLosslessAgainstUnindexed) {
  // Regressor check with the store's index live at the shipped
  // threshold. It serves the k-NN ground truth (knnStats at calibrate and
  // in the batch) at every selection, and the store selection too at
  // 20%; at 50% the selection takes the exact scan. The oracle's exact
  // scan and exact k-NN are the unindexed reference: re-deriving every
  // stored calibration score checks the self-excluded indexed k-NN at
  // calibrate, and batch == oracle is losslessness at the committee
  // level; the delegating assess() must agree as well.
  support::Rng R(58);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(8400, 0.1, R);
  ml::MlpRegressor Model;
  Model.fit(Train, R);

  for (double Fraction : {0.2, 0.5}) {
    SCOPED_TRACE("SelectFraction " + std::to_string(Fraction));
    PromConfig Indexed;
    Indexed.FixedClusters = 4; // The gap statistic would dominate the run.
    Indexed.SelectFraction = Fraction;
    Indexed.SelectAllBelow = 16;

    support::Rng RIdx(77);
    PromRegressor PromIdx(Model, Indexed);
    PromIdx.calibrate(Calib, RIdx);
    // A fixture under the threshold would silently test the exact scans.
    std::shared_ptr<const PromRegressor::Generation> G = PromIdx.pin();
    ASSERT_TRUE(G->Store.indexed());

    std::vector<std::vector<double>> Scores =
        oracleCalibrationScores(PromIdx, Calib);
    ASSERT_EQ(Scores.size(), PromIdx.numExperts());
    for (size_t E = 0; E < Scores.size(); ++E) {
      const std::vector<double> &Stored = G->Store.scoreColumn(E);
      ASSERT_EQ(Stored.size(), Calib.size());
      for (size_t I = 0; I < Calib.size(); ++I)
        ASSERT_EQ(bits(Scores[E][I]), bits(Stored[I]))
            << "expert " << E << " calibration row " << I;
    }

    data::Dataset Test = linearRegression(90, 0.1, R);
    std::vector<RegressionVerdict> Batched = PromIdx.assessBatch(Test);
    ASSERT_EQ(Batched.size(), Test.size());
    for (size_t I = 0; I < Test.size(); ++I) {
      expectSameRegressionVerdict(oracleAssess(PromIdx, Test[I]), Batched[I],
                                  I);
      expectSameRegressionVerdict(PromIdx.assess(Test[I]), Batched[I], I);
    }
  }
}

TEST(BatchEquivalenceTest, GbrRegressorCommitteeBitIdentical) {
  support::Rng R(56);
  data::Dataset Train = linearRegression(300, 0.1, R);
  data::Dataset Calib = linearRegression(120, 0.1, R);
  ml::GradientBoostingRegressor Model(smallBoostConfig());
  Model.fit(Train, R);

  PromRegressor Prom(Model);
  Prom.calibrate(Calib, R);
  data::Dataset Test = linearRegression(80, 0.1, R);

  std::vector<RegressionVerdict> Batched = Prom.assessBatch(Test);
  for (size_t I = 0; I < Test.size(); ++I)
    expectSameRegressionVerdict(oracleAssess(Prom, Test[I]), Batched[I], I);
}

//===----------------------------------------------------------------------===//
// Detector adapters
//===----------------------------------------------------------------------===//

TEST(BatchEquivalenceTest, DriftDetectorBatchMatchesPerSample) {
  support::Rng R(52);
  data::Dataset Full = gaussianBlobs(3, 250, 4.0, 0.9, R);
  auto [Train, Calib] = data::calibrationPartition(Full, R, 0.25);
  ml::LogisticRegression Model;
  Model.fit(Train, R);

  PromDriftDetector Det(PromConfig(), /*AutoTune=*/false);
  Det.fit(Model, Calib, R);
  data::Dataset Test = mixedTestSet(100, R);

  std::vector<char> Batched = Det.isDriftingBatch(Test);
  ASSERT_EQ(Batched.size(), Test.size());
  for (size_t I = 0; I < Test.size(); ++I)
    EXPECT_EQ(Det.isDrifting(Test[I]), Batched[I] != 0) << "sample " << I;
}
