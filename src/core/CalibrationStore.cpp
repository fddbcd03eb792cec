//===- core/CalibrationStore.cpp - Columnar calibration store ---------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CalibrationStore.h"
#include "support/Distance.h"
#include "support/Kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>

using namespace prom;
using support::kernels::fromKeyBits;

namespace {

/// Entries the median-NN-distance measurement samples (the first
/// MedianNNSample entries; bounded so finalize stays O(min(n,256)^2)).
constexpr size_t MedianNNSample = 256;

} // namespace

//===----------------------------------------------------------------------===//
// Columns and lifecycle
//===----------------------------------------------------------------------===//

size_t CalibrationStore::numExperts() const {
  if (!ScoreColumns.empty())
    return ScoreColumns.size();
  return Staged.empty() ? 0 : Staged.front().Scores.size();
}

void CalibrationStore::foldStaged() {
  if (Staged.empty())
    return;
  if (Labels.empty()) {
    // First fold (or everything live was evicted): the staged entries
    // define the shape.
    Embeds.reset(0, Staged.front().Embed.size());
    ScoreColumns.assign(Staged.front().Scores.size(), {});
  }
  size_t NumExp = ScoreColumns.size();
  size_t N = Labels.size() + Staged.size();
  // Exact reservations: the columns hold no growth slack, and a bounded
  // refresh (evict, then append the same count) never reallocates.
  Embeds.reserveRows(N);
  Labels.reserve(N);
  for (std::vector<double> &Column : ScoreColumns)
    Column.reserve(N);
  for (const CalibrationEntry &E : Staged) {
    assert(E.Embed.size() == Embeds.dim() && "ragged calibration embeds");
    assert(E.Scores.size() == NumExp && "ragged expert scores");
    Embeds.appendRow(E.Embed.data());
    Labels.push_back(E.Label);
    for (size_t X = 0; X < NumExp; ++X)
      ScoreColumns[X].push_back(E.Scores[X]);
  }
  std::vector<CalibrationEntry>().swap(Staged);
}

void CalibrationStore::dropOldest(size_t Count) {
  assert(Count <= size() && "evicting more entries than exist");
  size_t Live = std::min(Count, Labels.size());
  if (Live > 0) {
    Embeds.eraseFrontRows(Live);
    Labels.erase(Labels.begin(), Labels.begin() + static_cast<long>(Live));
    for (std::vector<double> &Column : ScoreColumns)
      Column.erase(Column.begin(), Column.begin() + static_cast<long>(Live));
  }
  Staged.erase(Staged.begin(),
               Staged.begin() + static_cast<long>(Count - Live));
}

size_t CalibrationStore::evictionCount() const {
  return MaxEntries != 0 && size() > MaxEntries ? size() - MaxEntries : 0;
}

void CalibrationStore::computeMedianNNDist() {
  if (Labels.size() < 2) {
    MedianNNDist = 1.0;
    return;
  }
  // Median nearest-neighbour distance over a bounded subsample keeps this
  // O(min(n,256)^2) even for large calibration sets. Non-finite distances
  // (a NaN or inf feature) are no neighbours, and a row without a finite
  // neighbour stays out of the median, so every value sorted is finite.
  size_t N = std::min<size_t>(Labels.size(), MedianNNSample);
  std::vector<double> NNDist;
  NNDist.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    double Best = std::numeric_limits<double>::infinity();
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      double D = support::euclidean(Embeds.rowPtr(I), Embeds.rowPtr(J),
                                    Embeds.dim());
      if (std::isfinite(D) && D < Best)
        Best = D;
    }
    if (std::isfinite(Best))
      NNDist.push_back(Best);
  }
  if (NNDist.empty()) {
    MedianNNDist = 1.0;
    return;
  }
  std::sort(NNDist.begin(), NNDist.end());
  MedianNNDist = std::max(NNDist[NNDist.size() / 2], 1e-9);
}

void CalibrationStore::finalize() {
  foldStaged();
  computeMedianNNDist();
  updateIndex(/*Force=*/true);
}

void CalibrationStore::appendEntries(std::vector<CalibrationEntry> NewEntries) {
  assert((Labels.empty() || NewEntries.empty() ||
          (NewEntries.front().Embed.size() == embedDim() &&
           NewEntries.front().Scores.size() == numExperts())) &&
         "appended entries must match the store shape");
  Staged.insert(Staged.end(), std::make_move_iterator(NewEntries.begin()),
                std::make_move_iterator(NewEntries.end()));
}

void CalibrationStore::refinalize() {
  size_t Live = Labels.size();
  size_t Evict = evictionCount();
  size_t NumStaged = Staged.size();

  // Degenerate refresh: the eviction swallows the whole live prefix (a
  // refresh batch larger than the store bound, or a store that was never
  // finalized). Nothing is reusable — rebuild from scratch.
  if (Live == 0 || (Evict > 0 && Evict >= Live)) {
    refinalizeFull();
    return;
  }

  dropOldest(Evict);
  foldStaged();
  // The distance-scale sample window is the first min(N, 256) entries:
  // unchanged by a pure append onto a store that already held 256, so the
  // recompute (and its O(256^2) distance scans) is skipped exactly when a
  // from-scratch finalize would measure the same window.
  if (Evict > 0 || Live < MedianNNSample)
    computeMedianNNDist();

  // Eviction shifts every surviving row, so the index is stale wholesale.
  // An append leaves it covering a prefix; the staleness policy decides
  // whether the exact tail scan is still cheap enough or the index
  // re-clusters now.
  if (Evict > 0 || NumStaged > 0)
    updateIndex(/*Force=*/Evict > 0);
}

void CalibrationStore::refinalizeFull() {
  dropOldest(evictionCount());
  finalize();
}

void CalibrationStore::setScoreColumns(
    std::vector<std::vector<double>> Columns) {
  assert(Staged.empty() && (Columns.empty() ||
                            Columns.front().size() == Labels.size()) &&
         "scores for a finalized store, one per live entry");
  ScoreColumns = std::move(Columns);
}

size_t CalibrationStore::memoryBytes() const {
  size_t Bytes = Embeds.memoryBytes() + Labels.capacity() * sizeof(int);
  for (const std::vector<double> &Column : ScoreColumns)
    Bytes += Column.capacity() * sizeof(double);
  Bytes += Staged.capacity() * sizeof(CalibrationEntry);
  for (const CalibrationEntry &E : Staged)
    Bytes += (E.Embed.capacity() + E.Scores.capacity()) * sizeof(double);
  return Bytes + Index.memoryBytes();
}

//===----------------------------------------------------------------------===//
// The derived cluster index
//===----------------------------------------------------------------------===//

void CalibrationStore::setIndexPolicy(const ClusterIndexPolicy &Policy) {
  IndexPolicy = Policy;
  updateIndex(/*Force=*/true);
}

void CalibrationStore::updateIndex(bool Force) {
  size_t N = Labels.size();
  if (!IndexPolicy.Enabled || N < IndexPolicy.MinEntries) {
    Index.clear();
    return;
  }
  assert((Force || Index.coveredRows() <= N) && "index past the live rows");
  // Rows appended after the build are scanned exactly by nearestRows(), so
  // a kept index stays lossless; it just prunes less. Rebuild once the
  // tail stops being cheap.
  if (!Force && Index.valid() &&
      static_cast<double>(N - Index.coveredRows()) <=
          IndexPolicy.MaxStaleFraction * static_cast<double>(N))
    return;
  // A fixed seed: deterministic across rebuilds and thread counts.
  Index.build(Embeds, N, IndexPolicy.NumCentroids,
              IndexPolicy.Seed ^ 0x9E3779B97F4A7C15ull);
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

size_t prom::selectionKeepCount(size_t N, const PromConfig &Cfg) {
  if (N < Cfg.SelectAllBelow)
    return N;
  size_t Keep =
      static_cast<size_t>(Cfg.SelectFraction * static_cast<double>(N) + 0.5);
  return std::max<size_t>(1, std::min(Keep, N));
}

/// Effective Eq. (1) temperature under \p Cfg.
static double effectiveTau(const PromConfig &Cfg, double MedianNNDist) {
  if (Cfg.AutoTau && MedianNNDist > 0.0)
    return Cfg.TauScale * MedianNNDist;
  return Cfg.Tau;
}

void CalibrationStore::selectForAssessment(const double *TestEmbed,
                                           const PromConfig &Cfg,
                                           AssessmentScratch &Scratch) const {
  assert(!Labels.empty() && "empty calibration store");
  assert(Staged.empty() &&
         "assessing a store with staged (unfinalized) entries");
  size_t N = Labels.size();
  Scratch.Pruned = support::ClusterScanStats();

  double MinSq = 0.0;
  Scratch.Keep = selectionKeepCount(N, Cfg);
  // The pruned scan pays off only when the selection is a proper subset
  // (a full selection must touch every entry anyway) — and a small one:
  // pruning can never skip the kept rows themselves, so large selections
  // are served faster by the exact scan (MaxSelectFraction bounds the
  // routing). Losslessness makes this purely a routing choice.
  if (Index.valid() && Scratch.Keep < N &&
      static_cast<double>(Scratch.Keep) <=
          IndexPolicy.MaxSelectFraction * static_cast<double>(N)) {
    // The query leaves exactly the Keep smallest keys, the cut in the last
    // slot. Only the selected entries carry their distance. Every other
    // entry gets the largest bit pattern (a NaN), which keeps it past the
    // cut even when the cut itself is +inf or NaN (a NaN query): below an
    // all-ones cut the bits decide, and at one the unselected keys are
    // (all-ones, id) anyway.
    nearestRows(TestEmbed, Scratch.Keep, Scratch);
    Scratch.Cut = Scratch.Candidates[Scratch.Keep - 1];
    Scratch.Dists.assign(N, fromKeyBits(~uint64_t(0)));
    uint64_t MinBits = ~uint64_t(0);
    for (const support::kernels::SelectKey &Key : Scratch.Candidates) {
      Scratch.Dists[Key.second] = fromKeyBits(Key.first);
      MinBits = std::min(MinBits, Key.first);
    }
    MinSq = fromKeyBits(MinBits);
  } else {
    // One batched kernel scan over the contiguous embedding block, the
    // same lane-folded l2Sq behind support::euclidean.
    Scratch.Dists.resize(N);
    support::kernels::l2Sq1xN(TestEmbed, Embeds.rowPtr(0), N, Embeds.dim(),
                              Embeds.stride(), Scratch.Dists.data());
    support::kernels::SelectionCut C = support::kernels::selectionCut(
        Scratch.Dists.data(), N, Scratch.Keep, Scratch.Candidates);
    Scratch.Cut = C.Cut;
    MinSq = fromKeyBits(C.MinBits);
  }
  // The Eq. (1) parameters. WeightedCount emphasizes *locally relevant*
  // evidence, so distances count from the closest entry (always selected):
  // a far-away input must not wash out every weight at once, which would
  // leave the smoothing term dominating and report p ~ 1 exactly when the
  // input is most novel. ScoreScaling keeps absolute distances; its
  // novelty mechanism is the global shrink itself.
  Scratch.Weighted = Cfg.WeightMode != CalibrationWeightMode::None;
  Scratch.Offset = Cfg.WeightMode == CalibrationWeightMode::WeightedCount
                       ? std::sqrt(MinSq)
                       : 0.0;
  Scratch.Tau = effectiveTau(Cfg, MedianNNDist);
  Scratch.NormPower = Cfg.WeightNormPower;
}

void CalibrationStore::nearestRows(const double *Query, size_t K,
                                   AssessmentScratch &S) const {
  assert(!Labels.empty() && "empty calibration store");
  assert(Staged.empty() && "querying a store with staged entries");
  size_t N = Labels.size();
  K = std::min(K, N);
  S.Pruned = support::ClusterScanStats();
  S.Pruned.RowsTotal = N;
  S.Candidates.clear();
  if (K == 0)
    return;
  // The walk scans the rows the index does not cover (all of them
  // without an index, else the stale tail appended after the build)
  // exactly, straight out of the embedding block, through the same
  // bound filter as its lists. Without an index it visits no list.
  Index.walk(Query, K, Embeds, N, S.Candidates, S.Walk, S.Pruned);
}

//===----------------------------------------------------------------------===//
// Eq. (2) p-values
//===----------------------------------------------------------------------===//

/// Resolves the effective weight mode of one expert: the paper's literal
/// score scaling breaks tie-heavy discrete scores (any w < 1 flips every
/// exact tie against the test sample), so those experts fall back to
/// weighted counting.
static CalibrationWeightMode resolveMode(const PromConfig &Cfg,
                                         bool DiscreteScores) {
  if (Cfg.WeightMode == CalibrationWeightMode::ScoreScaling && DiscreteScores)
    return CalibrationWeightMode::WeightedCount;
  return Cfg.WeightMode;
}

/// Shared final step of Eq. (2): p-values from the accumulated counts.
/// Label L's sums sit at GreaterEq[L * Stride] and Total[L * Stride].
static void finishPValues(const double *GreaterEq, const double *Total,
                          const double *Counts, size_t NumLabels,
                          size_t Stride, const PromConfig &Cfg,
                          double *POut) {
  for (size_t L = 0; L < NumLabels; ++L) {
    double GE = GreaterEq[L * Stride], Tot = Total[L * Stride];
    if (Counts[L] <= 0.0 || Tot == 0.0) {
      // No conformity evidence for this label among the selected samples:
      // none is selected, or every selected weight rounded to +0.
      POut[L] = 0.0;
      continue;
    }
    if (Cfg.SmoothedPValues) {
      // The pseudo-count is one *typical* observation (the mean weight),
      // so the minimum p-value stays ~1/(n+1) regardless of how sharply
      // the weights localize.
      double MeanW = Tot / Counts[L];
      POut[L] = (GE + MeanW) / (Tot + MeanW);
    } else {
      POut[L] = GE / Tot;
    }
  }
}

void CalibrationStore::pValuesAllExperts(AssessmentScratch &S,
                                         const double *TestScores,
                                         size_t NumLabels,
                                         const PromConfig &Cfg,
                                         const uint8_t *DiscreteFlags,
                                         double *PValsOut) const {
  assert(S.Dists.size() == Labels.size() &&
         "scratch holds no selection over this store");
  size_t N = Labels.size();
  size_t NumExp = numExperts();
  size_t Stride = support::kernels::foldStride(NumExp);
  size_t Cells = NumLabels * Stride;

  S.GreaterEq.assign(Cells, 0.0);
  S.Total.assign(Cells, 0.0);
  S.Counts.assign(NumLabels, 0.0);

  // The fold's per-lane rule: ScoreScaling experts scale the score, every
  // other expert (WeightedCount, None with W = 1, and discrete experts
  // that fell back to weighted counting) weights the count.
  S.Columns.resize(NumExp);
  S.Scaling.resize(NumExp);
  S.TestScores.assign(Cells, 0.0);
  for (size_t E = 0; E < NumExp; ++E) {
    S.Columns[E] = ScoreColumns[E].data();
    S.Scaling[E] = resolveMode(Cfg, DiscreteFlags && DiscreteFlags[E]) ==
                   CalibrationWeightMode::ScoreScaling;
    for (size_t L = 0; L < NumLabels; ++L)
      S.TestScores[L * Stride + E] = TestScores[E * NumLabels + L];
  }
  support::kernels::FoldQuery Q;
  Q.Dists = S.Dists.data();
  Q.Cut = S.Cut;
  Q.Labels = Labels.data();
  Q.NumLabels = NumLabels;
  Q.Columns = S.Columns.data();
  Q.Scaling = S.Scaling.data();
  Q.NumExperts = NumExp;
  Q.TestScores = S.TestScores.data();
  Q.Weighted = S.Weighted;
  Q.Offset = S.Offset;
  Q.Tau = S.Tau;
  Q.NormPower = S.NormPower;

  // The canonical block fold: each block sums into a zeroed partial, which
  // is added to the totals before the next block, in ascending block order.
  S.BlockGreaterEq.resize(Cells);
  S.BlockTotal.resize(Cells);
  S.BlockCounts.resize(NumLabels);
  for (size_t B0 = 0; B0 < N; B0 += CalibrationAccumBlock) {
    std::fill(S.BlockGreaterEq.begin(), S.BlockGreaterEq.end(), 0.0);
    std::fill(S.BlockTotal.begin(), S.BlockTotal.end(), 0.0);
    std::fill(S.BlockCounts.begin(), S.BlockCounts.end(), 0.0);
    support::kernels::foldBlock(Q, B0, std::min(N, B0 + CalibrationAccumBlock),
                                S.BlockGreaterEq.data(), S.BlockTotal.data(),
                                S.BlockCounts.data());
    for (size_t Cell = 0; Cell < Cells; ++Cell) {
      S.GreaterEq[Cell] += S.BlockGreaterEq[Cell];
      S.Total[Cell] += S.BlockTotal[Cell];
    }
    for (size_t L = 0; L < NumLabels; ++L)
      S.Counts[L] += S.BlockCounts[L];
  }

  for (size_t E = 0; E < NumExp; ++E)
    finishPValues(S.GreaterEq.data() + E, S.Total.data() + E,
                  S.Counts.data(), NumLabels, Stride, Cfg,
                  PValsOut + E * NumLabels);
}

double prom::confidenceFromSetSize(size_t Size, double C) {
  assert(C > 0.0 && "Gaussian scale must be positive");
  double D = static_cast<double>(Size) - 1.0;
  return support::kernels::expNeg((D * D) / (2.0 * C * C));
}
