//===- serve/DriftAttribution.cpp - Drift attribution layer -----------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/DriftAttribution.h"

#include <algorithm>
#include <cmath>

using namespace prom;
using namespace prom::serve;

namespace {

/// Below this reference spread a dimension is treated as constant:
/// standardizing by a near-zero sigma would turn any microscopic wiggle
/// into an astronomical z, so such dimensions fall back to raw
/// difference units (inverse spread 1) — a deviation there still ranks,
/// by how far it actually moved.
constexpr double MinRefStd = 1e-9;

} // namespace

const char *prom::serve::driftTypeName(DriftType T) {
  switch (T) {
  case DriftType::None:
    return "none";
  case DriftType::Sudden:
    return "sudden";
  case DriftType::Gradual:
    return "gradual";
  case DriftType::Recurring:
    return "recurring";
  }
  return "none";
}

//===----------------------------------------------------------------------===//
// WelfordAccumulator
//===----------------------------------------------------------------------===//

double WelfordAccumulator::stddev() const { return std::sqrt(variance()); }

void WelfordAccumulator::merge(const WelfordAccumulator &Other) {
  if (Other.Count == 0)
    return;
  if (Count == 0) {
    *this = Other;
    return;
  }
  double Na = static_cast<double>(Count);
  double Nb = static_cast<double>(Other.Count);
  double N = Na + Nb;
  double Delta = Other.Mean - Mean;
  Mean += Delta * (Nb / N);
  M2 += Other.M2 + Delta * Delta * (Na * Nb / N);
  Count += Other.Count;
}

//===----------------------------------------------------------------------===//
// PageHinkleyState
//===----------------------------------------------------------------------===//

bool PageHinkleyState::update(double X, const PageHinkleyConfig &Cfg) {
  ++Count;
  // The running mean includes the current observation (the classic
  // formulation); the reference implementations in the test suite mirror
  // this order.
  Mean += (X - Mean) / static_cast<double>(Count);
  CumUp += X - Mean - Cfg.Delta;
  if (CumUp < MinCumUp)
    MinCumUp = CumUp;
  CumDown += X - Mean + Cfg.Delta;
  if (CumDown > MaxCumDown)
    MaxCumDown = CumDown;
  if (!Alarm && Count >= Cfg.MinSamples &&
      (CumUp - MinCumUp > Cfg.Lambda || MaxCumDown - CumDown > Cfg.Lambda)) {
    Alarm = true;
    AlarmAt = Count;
  }
  return Alarm;
}

double PageHinkleyState::score() const {
  double Up = CumUp - MinCumUp;
  double Down = MaxCumDown - CumDown;
  return Up > Down ? Up : Down;
}

//===----------------------------------------------------------------------===//
// CUSUMState
//===----------------------------------------------------------------------===//

void CUSUMState::reset(double NewTarget) {
  *this = CUSUMState();
  Target = NewTarget;
}

bool CUSUMState::update(double X, const CUSUMConfig &Cfg) {
  ++Count;
  PosSum = std::max(0.0, PosSum + (X - Target - Cfg.Allowance));
  NegSum = std::max(0.0, NegSum + (Target - X - Cfg.Allowance));
  if (!Alarm && Count >= Cfg.MinSamples &&
      (PosSum > Cfg.Threshold || NegSum > Cfg.Threshold)) {
    Alarm = true;
    AlarmAt = Count;
  }
  return Alarm;
}

//===----------------------------------------------------------------------===//
// DriftAttribution
//===----------------------------------------------------------------------===//

DriftAttribution::DriftAttribution(DriftAttributionConfig CfgIn) : Cfg(CfgIn) {
  if (Cfg.ReferenceWindow < 2)
    Cfg.ReferenceWindow = 2;
  if (Cfg.CurrentWindow == 0)
    Cfg.CurrentWindow = 1;
  if (Cfg.MinCurrent == 0)
    Cfg.MinCurrent = 1;
  if (Cfg.TopK == 0)
    Cfg.TopK = 1;
  if (Cfg.SuddenSpan == 0)
    Cfg.SuddenSpan = std::max<size_t>(1, Cfg.CurrentWindow / 2);
  if (Cfg.TypeExit > Cfg.TypeEnter)
    Cfg.TypeExit = Cfg.TypeEnter;
}

double DriftAttribution::currentMean(const DimState &S) {
  uint64_t N = S.Prev.Count + S.Active.Count;
  if (N == 0)
    return S.Ref.Mean; // No current observations yet: zero shift.
  double Na = static_cast<double>(S.Prev.Count);
  double Nb = static_cast<double>(S.Active.Count);
  return (S.Prev.Mean * Na + S.Active.Mean * Nb) / (Na + Nb);
}

void DriftAttribution::observe(const double *Features, size_t Dims,
                               bool Rejected) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++TotalSeen;

  // The rejection stream is tracked for every observation, features or
  // not. Page-Hinkley references its own running mean, so it runs from
  // the start; CUSUM needs an in-control target, so it arms once the
  // rejection reference freezes (its own window, independent of whether
  // feature vectors ever arrive).
  double Rej = Rejected ? 1.0 : 0.0;
  RejectPH.update(Rej, Cfg.RejectPageHinkley);
  if (RejFrozen) {
    RejectCusum.update(Rej, Cfg.RejectCusum);
  } else {
    RefReject.add(Rej);
    if (RefReject.Count >= Cfg.ReferenceWindow) {
      RejectCusum.reset(RefReject.Mean);
      RejFrozen = true;
    }
  }

  if (Features == nullptr || Dims == 0)
    return;
  if (DimStates.empty())
    DimStates.resize(Dims); // First feature observation fixes the width.
  if (Dims != DimStates.size()) {
    ++Mismatches;
    return;
  }

  if (!RefReady) {
    for (size_t D = 0; D < Dims; ++D)
      DimStates[D].Ref.add(Features[D]);
    ++RefCount;
    if (RefCount >= Cfg.ReferenceWindow)
      freezeLocked();
    return;
  }

  // Tracking phase: O(Dims) per observation, no history kept.
  ++CurCount;
  double SumAbsZ = 0.0, MaxAbs = 0.0;
  for (size_t D = 0; D < Dims; ++D) {
    DimState &S = DimStates[D];
    S.Active.add(Features[D]);
    double ZInstant = (Features[D] - S.Ref.Mean) * S.InvRefStd;
    S.PH.update(ZInstant, Cfg.DimPageHinkley);
    S.Cusum.update(ZInstant, Cfg.DimCusum);
    double Z = (currentMean(S) - S.Ref.Mean) * S.InvRefStd;
    double A = std::fabs(Z);
    SumAbsZ += A;
    if (A > MaxAbs)
      MaxAbs = A;
  }
  // Tumble: the filled active bucket becomes the previous one, so the
  // current mean always reflects the last one-to-two windows and a late
  // sudden shift cannot be diluted away by an unbounded history.
  if (DimStates[0].Active.Count >= Cfg.CurrentWindow) {
    for (DimState &S : DimStates) {
      S.Prev = S.Active;
      S.Active.reset();
    }
  }

  if (CurCount < Cfg.MinCurrent)
    return; // Too few current samples for a meaningful magnitude.
  LastMaxAbsZ = MaxAbs;
  LastMeanAbsZ = SumAbsZ / static_cast<double>(Dims);

  // Drift-shape tracking: hysteresis excursions of the magnitude stream.
  // QuietEnd anchors the climb time — an excursion that went from quiet
  // to the enter threshold within SuddenSpan observations is sudden.
  if (!InExcursion) {
    if (LastMaxAbsZ < Cfg.TypeExit)
      QuietEnd = CurCount;
    if (LastMaxAbsZ >= Cfg.TypeEnter) {
      InExcursion = true;
      ++Excursions;
      LastExcursionSudden = (CurCount - QuietEnd) <= Cfg.SuddenSpan;
    }
  } else if (LastMaxAbsZ < Cfg.TypeExit) {
    InExcursion = false;
    QuietEnd = CurCount;
  }
}

void DriftAttribution::freezeLocked() {
  for (DimState &S : DimStates) {
    double Std = S.Ref.stddev();
    S.InvRefStd = Std > MinRefStd ? 1.0 / Std : 1.0;
    S.PH.reset();
    S.Cusum.reset(0.0);
    S.Active.reset();
    S.Prev.reset();
  }
  if (!RejFrozen) {
    RejectCusum.reset(RefReject.Mean);
    RejFrozen = true;
  }
  RefReady = true;
  CurCount = 0;
  LastMaxAbsZ = 0.0;
  LastMeanAbsZ = 0.0;
  InExcursion = false;
  Excursions = 0;
  QuietEnd = 0;
  LastExcursionSudden = false;
}

bool DriftAttribution::freezeReference() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (RefReady)
    return true;
  if (RefCount < 2)
    return false;
  freezeLocked();
  return true;
}

void DriftAttribution::rearmLocked() {
  DimStates.clear();
  RefReady = false;
  RefCount = 0;
  CurCount = 0;
  RefReject.reset();
  RejFrozen = false;
  RejectPH.reset();
  RejectCusum.reset(0.0);
  LastMaxAbsZ = 0.0;
  LastMeanAbsZ = 0.0;
  InExcursion = false;
  Excursions = 0;
  QuietEnd = 0;
  LastExcursionSudden = false;
}

void DriftAttribution::rearm() {
  std::lock_guard<std::mutex> Lock(Mutex);
  rearmLocked();
  ++Rearms;
}

void DriftAttribution::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  rearmLocked();
  TotalSeen = 0;
  Mismatches = 0;
  Rearms = 0;
}

DriftAttributionReport DriftAttribution::reportLocked(size_t TopK) const {
  DriftAttributionReport R;
  R.ReferenceReady = RefReady;
  R.Dims = DimStates.size();
  R.ReferenceCount = RefCount;
  R.CurrentCount = CurCount;
  R.MaxAbsZ = LastMaxAbsZ;
  R.MeanAbsZ = LastMeanAbsZ;
  R.RejectPageHinkley = RejectPH.Alarm;
  R.RejectCusum = RejectCusum.Alarm;
  R.ReferenceRejectRate = RefReject.Mean;
  R.Excursions = Excursions;
  if (Excursions == 0)
    R.Type = DriftType::None;
  else if (Excursions >= 2)
    R.Type = DriftType::Recurring;
  else
    R.Type = LastExcursionSudden ? DriftType::Sudden : DriftType::Gradual;

  if (!RefReady || DimStates.empty())
    return R;

  std::vector<DimensionDrift> Rows;
  Rows.reserve(DimStates.size());
  for (size_t D = 0; D < DimStates.size(); ++D) {
    const DimState &S = DimStates[D];
    DimensionDrift Row;
    Row.Dim = D;
    Row.RefMean = S.Ref.Mean;
    Row.RefStd = S.Ref.stddev();
    Row.CurrentMean = currentMean(S);
    Row.ZScore = (Row.CurrentMean - S.Ref.Mean) * S.InvRefStd;
    Row.PageHinkley = S.PH.Alarm;
    Row.Cusum = S.Cusum.Alarm;
    if (Row.PageHinkley)
      ++R.PageHinkleyDims;
    if (Row.Cusum)
      ++R.CusumDims;
    if (std::fabs(Row.ZScore) >= Cfg.ZThreshold)
      ++R.DriftedDims;
    Rows.push_back(Row);
  }

  // Rank: |z| descending, exact ties broken by ascending dimension index.
  // The tie-break makes the ordering total, so the result is
  // deterministic regardless of the sort algorithm.
  size_t K = std::min(TopK == 0 ? Cfg.TopK : TopK, Rows.size());
  std::partial_sort(Rows.begin(), Rows.begin() + K, Rows.end(),
                    [](const DimensionDrift &A, const DimensionDrift &B) {
                      double Za = std::fabs(A.ZScore);
                      double Zb = std::fabs(B.ZScore);
                      if (Za != Zb)
                        return Za > Zb;
                      return A.Dim < B.Dim;
                    });
  Rows.resize(K);
  R.Top = std::move(Rows);
  return R;
}

DriftAttributionReport DriftAttribution::report(size_t TopK) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return reportLocked(TopK);
}

bool DriftAttribution::referenceReady() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return RefReady;
}

uint64_t DriftAttribution::totalObserved() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return TotalSeen;
}

uint64_t DriftAttribution::dimMismatches() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Mismatches;
}

uint64_t DriftAttribution::rearms() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Rearms;
}
