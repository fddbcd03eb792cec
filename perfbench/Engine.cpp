//===- perfbench/Engine.cpp - The engine_10k workload ----------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Closed loop with one caller: PromClassifier::assessBatch in batches of 64
// over a seeded stream (a quarter of it drifted) against 10^4 calibration
// entries, then the same rows through prom_assess_batch on a C-ABI
// detector calibrated from the same model outputs. No queue, no registry:
// selection and p-values dominate a request here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/CApi.h"

#include <cstring>

using namespace prom;

namespace perfbench {

namespace {

constexpr size_t Entries = 10000;
/// Set-ups per run: one before the timed phases, the rest spread over the
/// direct closed loop (see runEngine).
constexpr int SetupReps = 12;
constexpr size_t WarmupBatches = 4;
/// Calibration rows of the detector pair the small remainders are
/// measured on (below SelectAllBelow, so the selection is the whole set).
constexpr size_t SmallEntries = 128;

/// Owns a prom_detector handle.
struct CApiDetector {
  prom_detector *D = nullptr;
  CApiDetector() = default;
  explicit CApiDetector(prom_detector *D) : D(D) {}
  CApiDetector(CApiDetector &&O) noexcept : D(O.D) { O.D = nullptr; }
  CApiDetector &operator=(CApiDetector &&O) noexcept {
    std::swap(D, O.D);
    return *this;
  }
  CApiDetector(const CApiDetector &) = delete;
  CApiDetector &operator=(const CApiDetector &) = delete;
  ~CApiDetector() { prom_destroy(D); }
};

/// Model outputs of the stream rows, as a C host would hold them.
struct HostOutputs {
  support::Matrix Probs, Embeds;
  const double *probs(size_t Row) const { return Probs.rowPtr(Row); }
  const double *embeds(size_t Row) const { return Embeds.rowPtr(Row); }
};

/// One prom_assess_batch call over stream batch \p B.
int capiBatch(const CApiDetector &C, const HostOutputs &H, size_t B,
              int *Reject, double *Cred, double *Conf) {
  size_t First = B * BatchRows;
  return prom_assess_batch(C.D, BatchRows, H.probs(First), H.embeds(First),
                           Reject, Cred, Conf);
}

} // namespace

void runEngine(const Options &Opt, RunResult &Out) {
  support::Rng R(Opt.Seed);
  data::Dataset Calib = classSet(R, Entries);
  data::Dataset Stream = classStream(R);
  std::unique_ptr<ml::MlpClassifier> Host = trainHostClassifier();
  SpanLog Log;
  TracedClassifier Traced(*Host, Log);
  const ml::Classifier &Model =
      Opt.Trace ? static_cast<const ml::Classifier &>(Traced) : *Host;

  const size_t NumBatches = Stream.size() / BatchRows;
  std::vector<data::Dataset> Batches;
  for (size_t B = 0; B < NumBatches; ++B)
    Batches.push_back(slice(Stream, B * BatchRows, BatchRows));
  HostOutputs Outputs;
  Host->predictWithEmbedBatch(Stream, Outputs.Probs, Outputs.Embeds);
  std::vector<int> Reject(BatchRows);
  std::vector<double> Cred(BatchRows), Conf(BatchRows);

  // Set-up: calibration, the C-ABI detector, warm-up of both paths.
  std::vector<double> SetupS, CalibrateS;
  auto SetUp = [&](std::unique_ptr<PromClassifier> &P, CApiDetector &C) {
    auto T0 = Clock::now();
    P = std::make_unique<PromClassifier>(Model);
    P->calibrate(Calib);
    CalibrateS.push_back(secondsSince(T0));
    C = CApiDetector(makeCApiDetector(Model, Calib));
    for (size_t B = 0; B < WarmupBatches; ++B) {
      P->assessBatch(Batches[B]);
      capiBatch(C, Outputs, B, Reject.data(), Cred.data(), Conf.data());
    }
    SetupS.push_back(secondsSince(T0));
  };
  std::unique_ptr<PromClassifier> Prom;
  CApiDetector CApi;
  SetUp(Prom, CApi);
  if (!CApi.D) {
    ++Out.Attempted;
    ++Out.Mismatches;
    return;
  }

  // Phase 1: direct closed loop, timed per call, rates per set of calls.
  // It runs in slices with one more set-up after each, so the set-ups
  // sample the whole phase: a slow moment of a shared host then lands in
  // one or two of them instead of all of them.
  std::vector<double> CallUs, Rates;
  std::vector<Verdict> FirstPass = slicedClosedLoop(
      *Prom, Batches, 0.55 * Opt.Seconds, SetupReps - 1,
      [&] {
        std::unique_ptr<PromClassifier> P;
        CApiDetector C;
        SetUp(P, C);
      },
      Log, Opt.Trace, CallUs, Rates);
  Out.Attempted += CallUs.size();

  // Phase 2: the same rows through prom_assess_batch; every verdict of the
  // first pass must match the direct one.
  const double CApiS = 0.3 * Opt.Seconds;
  std::vector<double> CApiRates;
  auto Start = Clock::now();
  for (size_t B = 0; B < NumBatches || secondsSince(Start) < CApiS;) {
    auto SetStart = Clock::now();
    for (size_t K = 0; K < 8; ++K, ++B) {
      size_t SB = B % NumBatches;
      ++Out.Attempted;
      if (capiBatch(CApi, Outputs, SB, Reject.data(), Cred.data(),
                    Conf.data()) != 0) {
        ++Out.Mismatches;
        continue;
      }
      if (B >= NumBatches)
        continue;
      for (size_t I = 0; I < BatchRows; ++I) {
        const Verdict &V = FirstPass[SB * BatchRows + I];
        double MeanCred = V.meanCredibility(), MeanConf = V.meanConfidence();
        if ((Reject[I] != 0) != V.Drifted ||
            std::memcmp(&Cred[I], &MeanCred, sizeof(double)) != 0 ||
            std::memcmp(&Conf[I], &MeanConf, sizeof(double)) != 0)
          ++Out.Mismatches;
      }
    }
    CApiRates.push_back(8.0 * BatchRows / secondsSince(SetStart));
  }
  SnapshotTimes Snap = classifierGate(*Prom, Model, Calib,
                                      slice(Stream, 0, 128), Opt.WorkDir, Out);

  double Recall = flagRecall(Stream, FirstPass);
  Out.EndToEnd.push_back({"throughput_sps", median(Rates), "1/s"});
  addLatency(Out, Out.EndToEnd, "", summarize(CallUs), "batch calls");
  Out.EndToEnd.push_back({"setup_s", median(SetupS), "s"});
  Out.Ledger.push_back({"flag_recall", Recall, "fraction"});
  Out.Ledger.push_back({"capi_throughput_sps", median(CApiRates), "1/s"});
  Out.Ledger.push_back({"bytes_per_entry",
                        static_cast<double>(Prom->memoryBytes()) /
                            static_cast<double>(Prom->calibrationSize()),
                        "B"});
  if (!Opt.Trace)
    return;

  size_t Flagged = 0;
  for (const Verdict &V : FirstPass)
    Flagged += V.Drifted ? 1 : 0;
  double FlagFrac = static_cast<double>(Flagged) / FirstPass.size();
  ForwardStats Fwd = forwardStats(Log.take());
  StageTimes St = replicaStages(*Prom, Model, Calib, Stream, 2);

  // The C-ABI boundary and the engine's own remainder (temperature, vote,
  // fan-out) do not grow with the store, and at 10^4 entries both sit
  // below the run-to-run noise of the selection. They are measured on a
  // pair of detectors calibrated on SmallEntries rows instead, where they
  // are resolvable: per (pass, batch) the two sides run back to back in
  // alternating order, and the median of the differences is reported.
  data::Dataset Small = slice(Calib, 0, SmallEntries);
  PromClassifier SmallP(Model);
  SmallP.calibrate(Small);
  StageTimes SmallSt = replicaStages(SmallP, Model, Small, Stream, 3);
  CApiDetector SmallC(makeCApiDetector(Model, Small));
  std::vector<double> CApiOverheadUs;
  for (size_t Pass = 0; SmallC.D && Pass < 4; ++Pass)
    for (size_t B = 0; B < NumBatches; ++B) {
      support::Matrix BP = rowBlock(Outputs.Probs, B * BatchRows, BatchRows);
      support::Matrix BE = rowBlock(Outputs.Embeds, B * BatchRows, BatchRows);
      double CUs = 0.0, EUs = 0.0;
      for (int Side = 0; Side < 2; ++Side) {
        auto T0 = Clock::now();
        if ((Side + Pass + B) % 2 == 0) {
          capiBatch(SmallC, Outputs, B, Reject.data(), Cred.data(),
                    Conf.data());
          CUs = usBetween(T0, Clock::now());
        } else {
          SmallP.assessBatchWithForwards(BP, BE);
          EUs = usBetween(T0, Clock::now());
        }
      }
      CApiOverheadUs.push_back((CUs - EUs) / BatchRows);
    }
  Out.ReplicaExact = St.Exact && SmallSt.Exact;

  PromClassifier Raw(*Host);
  Raw.calibrate(Calib);
  double Overhead = traceOverhead(*Prom, Raw, Batches, 0.1 * Opt.Seconds, Log);
  addCommonLayers(Out, Fwd, St.EngineUs, median(CalibrateS), FlagFrac,
                  static_cast<double>(Entries * FeatureDim * 8), Snap,
                  Overhead);
  Out.Ledger.push_back({"core.store.select_us", St.SelectUs, "us"});
  Out.Ledger.push_back({"core.store.pvalues_us", St.PValuesUs, "us"});
  Out.Ledger.push_back(
      {"core.nonconformity.score_all_us", St.ScoreAllUs, "us"});
  Out.Ledger.push_back({"core.detector.other_us", SmallSt.OtherUs, "us"});
  Out.Ledger.push_back({"core.detector.replica_exact",
                        Out.ReplicaExact ? 1.0 : 0.0, "bool"});
  Out.Ledger.push_back({"core.capi.overhead_us_per_sample",
                        median(CApiOverheadUs), "us"});
  Out.Notes.push_back("store stages are medians over " +
                      std::to_string(St.Queries / BatchRows) +
                      " replica batches paired with the engine's");
  Out.Notes.push_back("core.detector.other_us and core.capi.overhead_us_per_"
                      "sample are measured on a " +
                      std::to_string(SmallEntries) + "-entry detector pair");
}

} // namespace perfbench
