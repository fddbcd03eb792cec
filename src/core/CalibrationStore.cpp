//===- core/CalibrationStore.cpp - Columnar calibration store ---------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CalibrationStore.h"
#include "support/Distance.h"
#include "support/Kernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>

using namespace prom;

namespace {

/// Below this many entries the shard fan-out costs more than the work; the
/// threshold only gates parallelism, never the arithmetic.
constexpr size_t MinEntriesForFanOut = 512;

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
  // O(min(n,256)^2) even for large calibration sets.
  size_t N = std::min<size_t>(Labels.size(), MedianNNSample);
  std::vector<double> NNDist;
  NNDist.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    double Best = -1.0;
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      double D = support::euclidean(Embeds.rowPtr(I), Embeds.rowPtr(J),
                                    Embeds.dim());
      if (Best < 0.0 || D < Best)
        Best = D;
    }
    NNDist.push_back(Best);
  }
  std::sort(NNDist.begin(), NNDist.end());
  MedianNNDist = std::max(NNDist[NNDist.size() / 2], 1e-9);
}

void CalibrationStore::finalize(size_t NumShards) {
  foldStaged();
  computeMedianNNDist();
  TargetShards = NumShards == 0 ? 1 : NumShards;
  buildShards(TargetShards);
}

void CalibrationStore::reshard(size_t NumShards) {
  assert(Staged.empty() && "reshard before finalize");
  TargetShards = NumShards == 0 ? 1 : NumShards;
  buildShards(NumShards);
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

  if (Evict > 0) {
    // Eviction re-blocks every surviving entry (block membership is
    // positional), so the shard partition and its indexes are stale
    // wholesale.
    buildShards(TargetShards);
    return;
  }
  if (NumStaged == 0)
    return;
  assert(!Shards.empty() && "finalized non-empty store without shards");

  // Append-only refresh: the new entries extend the last shard (filling
  // its trailing partial block first — the block-aligned insert). Once
  // that shard drifts past twice the even share, rebalance to the
  // requested partition; any block-aligned contiguous layout yields
  // bit-identical verdicts, so the rebalance point is pure load-balancing.
  size_t NumBlocks = numAccumBlocks();
  size_t Ideal = std::min(TargetShards, NumBlocks);
  size_t IdealBlocksPerShard = (NumBlocks + Ideal - 1) / Ideal;
  Shard &Last = Shards.back();
  size_t LastShardBlocks = NumBlocks - Last.Begin / CalibrationAccumBlock;
  if (LastShardBlocks > 2 * IdealBlocksPerShard) {
    buildShards(TargetShards);
    return;
  }
  assert(Last.End == Live && "extending past staged entries");
  Last.End = Labels.size();
  // The extension left the last shard's cluster index covering only a
  // prefix; the staleness policy decides whether the exact tail scan is
  // still cheap enough or the index re-clusters now. Every other shard is
  // untouched and already reconciled.
  updateShardIndex(Last);
}

void CalibrationStore::refinalizeFull() {
  dropOldest(evictionCount());
  finalize(TargetShards);
}

size_t CalibrationStore::memoryBytes() const {
  size_t Bytes = Embeds.memoryBytes() + Labels.capacity() * sizeof(int);
  for (const std::vector<double> &Column : ScoreColumns)
    Bytes += Column.capacity() * sizeof(double);
  Bytes += Staged.capacity() * sizeof(CalibrationEntry);
  for (const CalibrationEntry &E : Staged)
    Bytes += (E.Embed.capacity() + E.Scores.capacity()) * sizeof(double);
  for (const Shard &Sh : Shards)
    Bytes += Sh.Index.memoryBytes();
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Shards and their derived indexes
//===----------------------------------------------------------------------===//

void CalibrationStore::buildShards(size_t NumShards) {
  Shards.clear();
  size_t N = Labels.size();
  size_t NumBlocks = numAccumBlocks();
  if (NumBlocks == 0)
    return;
  if (NumShards == 0)
    NumShards = 1;
  // A shard owns whole accumulation blocks, so block partials never
  // straddle shards and the block-partial merge stays K-invariant.
  NumShards = std::min(NumShards, NumBlocks);
  size_t BlocksPerShard = (NumBlocks + NumShards - 1) / NumShards;
  for (size_t S = 0; S < NumShards; ++S) {
    size_t FirstBlock = S * BlocksPerShard;
    if (FirstBlock >= NumBlocks)
      break;
    size_t LastBlock = std::min(NumBlocks, FirstBlock + BlocksPerShard);
    Shard Sh;
    Sh.Begin = FirstBlock * CalibrationAccumBlock;
    Sh.End = std::min(N, LastBlock * CalibrationAccumBlock);
    Shards.push_back(std::move(Sh));
  }
  updateShardIndexes(/*Force=*/false);
}

void CalibrationStore::setIndexPolicy(const ClusterIndexPolicy &Policy) {
  IndexPolicy = Policy;
  updateShardIndexes(/*Force=*/true);
}

size_t CalibrationStore::indexedShards() const {
  size_t Count = 0;
  for (const Shard &Sh : Shards)
    Count += Sh.Index.valid() ? 1 : 0;
  return Count;
}

size_t CalibrationStore::unindexedEntries() const {
  size_t Count = 0;
  for (const Shard &Sh : Shards)
    Count += (Sh.End - Sh.Begin) - (Sh.Index.valid() ? Sh.Index.coveredRows()
                                                     : 0);
  return Count;
}

void CalibrationStore::updateShardIndexes(bool Force) {
  if (Force)
    for (Shard &Sh : Shards)
      Sh.Index.clear();
  // Per-shard builds touch disjoint state and kMeansMatrix is thread-count
  // deterministic, so the fan-out cannot change any index bit (and runs
  // inline when nested under an active pool region).
  support::ThreadPool::global().parallelFor(
      Shards.size(), [&](size_t Begin, size_t End) {
        for (size_t S = Begin; S < End; ++S)
          updateShardIndex(Shards[S]);
      });
}

void CalibrationStore::updateShardIndex(Shard &Sh) {
  support::ClusterIndex &Idx = Sh.Index;
  size_t Size = Sh.End - Sh.Begin;
  if (!IndexPolicy.Enabled || Size < IndexPolicy.MinEntries) {
    Idx.clear();
    return;
  }
  if (Idx.valid() && Idx.beginRow() == Sh.Begin && Idx.endRow() <= Sh.End) {
    // Entries [endRow, Sh.End) were appended after the build; they are
    // scanned exactly by the pruned path, so the index stays lossless —
    // it just prunes less. Rebuild once the tail stops being cheap.
    size_t Tail = Sh.End - Idx.endRow();
    if (static_cast<double>(Tail) <=
        IndexPolicy.MaxStaleFraction * static_cast<double>(Size))
      return;
  }
  // Seed per shard position: deterministic across rebuilds and thread
  // counts, decorrelated between shards.
  Idx.build(Embeds, Sh.Begin, Sh.End, IndexPolicy.NumCentroids,
            IndexPolicy.Seed ^ (0x9E3779B97F4A7C15ull * (Sh.Begin + 1)));
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

/// The Eq. (1) weight of a selected entry at distance \p Dist.
///
/// WeightedCount emphasizes *locally relevant* calibration evidence, so
/// distances are measured relative to the nearest selected sample (the
/// \p Offset) — a far-away test input must not wash out every weight at
/// once (that would leave the smoothing term dominating and report p ~ 1
/// exactly when the input is most novel). ScoreScaling keeps absolute
/// distances: its novelty mechanism is the global shrink itself.
static double distanceWeight(double Dist, double Offset, double Tau,
                             int NormPower) {
  double D = std::max(0.0, Dist - Offset);
  double Norm = NormPower == 2 ? D * D : D;
  double Exponent = Norm / Tau;
  // std::exp(-x) rounds to +0.0 for every x above 746 (the subnormal range
  // ends at ln 2^-1075 ~ 745.13). Returning the 0.0 directly is therefore
  // bit-identical, and it keeps far-away calibration samples from paying
  // the libm underflow slow path — and from injecting subnormal weights
  // into the p-value sums, where every add would hit a microcode assist.
  if (Exponent > 746.0)
    return 0.0;
  return std::exp(-Exponent);
}

CalibrationSelection
CalibrationStore::select(const std::vector<double> &TestEmbed,
                         const PromConfig &Cfg) const {
  size_t N = Labels.size();
  assert(N > 0 && "empty calibration set");

  std::vector<double> Dist(N);
  for (size_t I = 0; I < N; ++I)
    Dist[I] = support::euclidean(Embeds.rowPtr(I), TestEmbed.data(),
                                 Embeds.dim());

  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::sort(Order.begin(), Order.end(), [&Dist](size_t A, size_t B) {
    if (Dist[A] != Dist[B])
      return Dist[A] < Dist[B];
    return A < B;
  });

  size_t Keep = selectionKeepCount(N, Cfg);
  Order.resize(Keep);

  CalibrationSelection Sel;
  Sel.Indices = Order;
  Sel.Weights.resize(Keep, 1.0);
  if (Cfg.WeightMode != CalibrationWeightMode::None) {
    double Tau = effectiveTau(Cfg, MedianNNDist);
    double Offset = Cfg.WeightMode == CalibrationWeightMode::WeightedCount
                        ? Dist[Sel.Indices.front()]
                        : 0.0;
    for (size_t I = 0; I < Keep; ++I)
      Sel.Weights[I] = distanceWeight(Dist[Sel.Indices[I]], Offset, Tau,
                                      Cfg.WeightNormPower);
  }
  return Sel;
}

/// The double whose bit pattern is \p Bits.
static double fromKeyBits(uint64_t Bits) {
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

double AssessmentScratch::weight(size_t I) const {
  // The deferred sqrt of the kernel's squared distance is select()'s
  // support::euclidean value bit for bit.
  return Weighted ? distanceWeight(std::sqrt(Dists[I]), Offset, Tau, NormPower)
                  : 1.0;
}

/// Sets the cut of \p S to the S.Keep-th smallest (distance bits, id) key
/// of S.Dists and returns the smallest squared distance, in O(N) plus a
/// selection within one bucket.
///
/// A histogram over range-adapted bit buckets finds the bucket that holds
/// the cut in one pass; only its members (usually a handful) are collected
/// and ordered by (bits, id). No double is compared, so the result is
/// defined for every bit pattern.
static double cutSmallestKeys(AssessmentScratch &S) {
  const std::vector<double> &Dists = S.Dists;
  size_t N = Dists.size(), Keep = S.Keep;
  uint64_t MinBits = ~uint64_t(0), MaxBits = 0;
  for (double D : Dists) {
    MinBits = std::min(MinBits, keyBits(D));
    MaxBits = std::max(MaxBits, keyBits(D));
  }
  S.Candidates.clear();
  if (Keep == N || MinBits == MaxBits) {
    // A full selection admits every key up to the largest; with all keys
    // equal, the id tie-break alone decides.
    S.Cut = {MaxBits, static_cast<uint32_t>(Keep - 1)};
    return fromKeyBits(MinBits);
  }

  constexpr size_t NumBuckets = 2048;
  int Shift = 0;
  while (((MaxBits - MinBits) >> Shift) >= NumBuckets)
    ++Shift;
  auto Bucket = [&](double D) { return (keyBits(D) - MinBits) >> Shift; };
  uint32_t Histogram[NumBuckets] = {0};
  for (double D : Dists)
    ++Histogram[Bucket(D)];

  // The pivot bucket is the one where the cumulative count crosses Keep;
  // every key below it is selected, every key above it is not.
  size_t Cum = 0, Pivot = 0;
  while (Cum + Histogram[Pivot] < Keep)
    Cum += Histogram[Pivot++];
  for (size_t I = 0; I < N; ++I)
    if (Bucket(Dists[I]) == Pivot)
      S.Candidates.push_back({keyBits(Dists[I]), static_cast<uint32_t>(I)});
  auto Cut = S.Candidates.begin() + static_cast<long>(Keep - Cum - 1);
  std::nth_element(S.Candidates.begin(), Cut, S.Candidates.end());
  S.Cut = *Cut;
  return fromKeyBits(MinBits);
}

support::ClusterScanStats
CalibrationStore::BatchPrunedScan::aggregated() const {
  support::ClusterScanStats Agg;
  for (const support::ClusterScanStats &S : PerQuery)
    Agg += S;
  return Agg;
}

bool CalibrationStore::prunedRouting(size_t Keep) const {
  // The pruned scan pays off only when the selection is a proper subset
  // (a full selection must touch every entry anyway) — and a small one:
  // pruning can never skip the kept rows themselves, so large selections
  // are served faster by the exact scan (MaxSelectFraction bounds the
  // routing). Losslessness makes this purely a routing choice.
  size_t N = Labels.size();
  if (!IndexPolicy.Enabled || indexedShards() == 0)
    return false;
  return Keep < N && static_cast<double>(Keep) <=
                         IndexPolicy.MaxSelectFraction *
                             static_cast<double>(N);
}

void CalibrationStore::prepareBatchPrunedScan(const double *Queries,
                                              size_t NumQueries,
                                              size_t QueryStride,
                                              const PromConfig &Cfg,
                                              BatchPrunedScan &Scan) const {
  Scan.Active = false;
  Scan.NumQueries = NumQueries;
  Scan.Blocks.clear();
  Scan.PerQuery.assign(NumQueries, support::ClusterScanStats());
  if (Labels.empty() || NumQueries == 0 ||
      !prunedRouting(selectionKeepCount(Labels.size(), Cfg)))
    return;
  Scan.Active = true;

  for (size_t SI = 0; SI < Shards.size(); ++SI) {
    const support::ClusterIndex &Idx = Shards[SI].Index;
    if (!Idx.valid())
      continue;
    BatchPrunedScan::ShardBlock B;
    B.Shard = SI;
    B.NumLists = Idx.numLists();
    B.DistSq.resize(NumQueries * B.NumLists);
    Scan.Blocks.push_back(std::move(B));
  }
  // One blocked MxN pass per (query chunk, indexed shard) fills the
  // distance blocks: chunks are disjoint query rows and block row Q is
  // bit-identical to centroidDistances(query Q), so neither the fan-out
  // nor the batching can change a selection bit.
  for (BatchPrunedScan::ShardBlock &B : Scan.Blocks) {
    const support::ClusterIndex &Idx = Shards[B.Shard].Index;
    support::ThreadPool::global().parallelFor(
        NumQueries, [&](size_t Begin, size_t End) {
          if (Begin >= End)
            return;
          Idx.centroidDistancesBatch(Queries + Begin * QueryStride,
                                     End - Begin, QueryStride,
                                     B.DistSq.data() + Begin * B.NumLists);
        });
  }
}

void CalibrationStore::selectForAssessment(const double *TestEmbed,
                                           const PromConfig &Cfg,
                                           AssessmentScratch &Scratch,
                                           BatchPrunedScan *Batch,
                                           size_t QueryIndex) const {
  assert(!Labels.empty() && "empty calibration store");
  assert(Staged.empty() &&
         "assessing a store with staged (unfinalized) entries");
  size_t N = Labels.size();
  Scratch.Pruned = support::ClusterScanStats();

  double MinSq = 0.0;
  Scratch.Keep = selectionKeepCount(N, Cfg);
  if (prunedRouting(Scratch.Keep)) {
    assert((!Batch || (Batch->Active && QueryIndex < Batch->NumQueries)) &&
           "batch scan prepared under a different store or config");
    MinSq = selectForAssessmentPruned(TestEmbed, Scratch,
                                      Batch && Batch->Active ? Batch : nullptr,
                                      QueryIndex);
    if (Batch && Batch->Active)
      Batch->PerQuery[QueryIndex] = Scratch.Pruned;
  } else {
    // One batched kernel scan over the contiguous embedding block, the
    // same lane-folded l2Sq behind support::euclidean. Sharded stores fill
    // disjoint slices from worker threads (per-entry independent, so the
    // values match the serial scan), hence Dists is sized up front.
    Scratch.Dists.resize(N);
    auto ScanRange = [&](size_t Begin, size_t End) {
      support::kernels::l2Sq1xN(TestEmbed, Embeds.rowPtr(Begin), End - Begin,
                                Embeds.dim(), Embeds.stride(),
                                Scratch.Dists.data() + Begin);
    };
    if (Shards.size() > 1 && N >= MinEntriesForFanOut)
      support::ThreadPool::global().parallelFor(
          Shards.size(), [&](size_t Begin, size_t End) {
            for (size_t S = Begin; S < End; ++S)
              ScanRange(Shards[S].Begin, Shards[S].End);
          });
    else
      ScanRange(0, N);
    MinSq = cutSmallestKeys(Scratch);
  }
  // The Eq. (1) parameters. The closest entry is always selected, so the
  // root of MinSq is select()'s WeightedCount offset.
  Scratch.Weighted = Cfg.WeightMode != CalibrationWeightMode::None;
  Scratch.Offset = Cfg.WeightMode == CalibrationWeightMode::WeightedCount
                       ? std::sqrt(MinSq)
                       : 0.0;
  Scratch.Tau = effectiveTau(Cfg, MedianNNDist);
  Scratch.NormPower = Cfg.WeightNormPower;
}

double CalibrationStore::selectForAssessmentPruned(
    const double *TestEmbed, AssessmentScratch &S,
    const BatchPrunedScan *Batch, size_t QueryIndex) const {
  size_t N = Labels.size(), Keep = S.Keep;
  S.Pruned.RowsTotal = N;
  S.Candidates.clear();

  // Exact scan of one contiguous row range into the candidate list. Rows
  // come straight out of the embedding block, so the kernel fold is the
  // very one the unpruned path runs.
  auto ScanRange = [&](size_t Begin, size_t End) {
    if (Begin >= End)
      return;
    S.RowScratch.resize(End - Begin);
    support::kernels::l2Sq1xN(TestEmbed, Embeds.rowPtr(Begin), End - Begin,
                              Embeds.dim(), Embeds.stride(),
                              S.RowScratch.data());
    for (size_t I = Begin; I < End; ++I)
      S.Candidates.push_back(
          {keyBits(S.RowScratch[I - Begin]), static_cast<uint32_t>(I)});
    S.Pruned.RowsScanned += End - Begin;
  };

  // Phase 1 — mandatory exact rows: unindexed shards and the stale tails
  // appended after each index was built. Scanning them first also seeds
  // the pruning bound before any list is visited.
  for (const Shard &Sh : Shards)
    ScanRange(Sh.Index.valid() ? Sh.Index.endRow() : Sh.Begin, Sh.End);

  // Phase 2 — rank every live index's lists globally by query-centroid
  // distance (the scan order only affects how fast the bound tightens,
  // never the result). With a prepared batch, this query's centroid
  // distances come straight out of the per-shard blocks — the same bits
  // the per-query kernel calls would produce, with the MxN pass already
  // amortized across the whole batch.
  S.ListOrder.clear();
  if (Batch) {
    for (const BatchPrunedScan::ShardBlock &B : Batch->Blocks) {
      assert(B.Shard < Shards.size() && Shards[B.Shard].Index.valid() &&
             B.NumLists == Shards[B.Shard].Index.numLists() &&
             "stale batch scan: the store changed after prepare");
      const double *Row = B.DistSq.data() + QueryIndex * B.NumLists;
      for (size_t L = 0; L < B.NumLists; ++L)
        S.ListOrder.push_back(
            {Row[L], (static_cast<uint64_t>(B.Shard) << 32) | L});
    }
  } else {
    S.CentroidDists.clear();
    for (size_t SI = 0; SI < Shards.size(); ++SI) {
      const support::ClusterIndex &Idx = Shards[SI].Index;
      if (!Idx.valid())
        continue;
      size_t Off = S.CentroidDists.size();
      size_t NumLists = Idx.numLists();
      S.CentroidDists.resize(Off + NumLists);
      Idx.centroidDistances(TestEmbed, S.CentroidDists.data() + Off);
      for (size_t L = 0; L < NumLists; ++L)
        S.ListOrder.push_back({S.CentroidDists[Off + L],
                               (static_cast<uint64_t>(SI) << 32) | L});
    }
  }
  S.Pruned.ListsTotal = S.ListOrder.size();
  std::sort(S.ListOrder.begin(), S.ListOrder.end());

  // Phase 3/4 — walk the ranked lists under a lazily tightened k-th
  // candidate bound. The bound is over *candidate* keys, hence >= the
  // global k-th key; with the strict > comparison (and ClusterIndex's
  // slackened lower bounds) a pruned member can never belong to the
  // selection — see support/ClusterIndex.h for the full argument.
  bool HaveBound = false;
  double BoundKey = 0.0;
  size_t LastTighten = 0;
  auto Tighten = [&] {
    if (S.Candidates.size() < Keep)
      return;
    std::nth_element(S.Candidates.begin(),
                     S.Candidates.begin() + static_cast<long>(Keep - 1),
                     S.Candidates.end());
    BoundKey = fromKeyBits(S.Candidates[Keep - 1].first);
    HaveBound = true;
    LastTighten = S.Candidates.size();
  };
  Tighten();

  for (const std::pair<double, uint64_t> &Ranked : S.ListOrder) {
    size_t SI = static_cast<size_t>(Ranked.second >> 32);
    size_t L = static_cast<size_t>(Ranked.second & 0xffffffffu);
    const support::ClusterIndex &Idx = Shards[SI].Index;
    size_t LB = Idx.listBegin(L), LE = Idx.listEnd(L);
    if (LB == LE)
      continue;
    if (HaveBound && Idx.listLowerBoundSq(Ranked.first, L) > BoundKey)
      continue;
    ++S.Pruned.ListsScanned;
    S.Pruned.RowsScanned += LE - LB;
    const support::FeatureMatrix &Rows = Idx.listRows();
    S.RowScratch.resize(LE - LB);
    support::kernels::l2Sq1xN(TestEmbed, Rows.rowPtr(LB), LE - LB,
                              Rows.dim(), Rows.stride(), S.RowScratch.data());
    for (size_t I = LB; I < LE; ++I)
      S.Candidates.push_back({keyBits(S.RowScratch[I - LB]), Idx.rowId(I)});
    if (!HaveBound || S.Candidates.size() >= 2 * LastTighten)
      Tighten();
  }

  // Every entry is either a candidate or provably farther than the bound,
  // so the Keep smallest candidates are the exact path's selection and the
  // last nth_element at Keep - 1 puts its cut in that slot.
  assert(Keep < N && S.Candidates.size() >= Keep &&
         "pruned candidates cannot cover the selection");
  if (S.Candidates.size() != LastTighten)
    Tighten();
  S.Cut = S.Candidates[Keep - 1];
  // Only the selected entries carry their distance; +inf keeps every other
  // entry past the cut.
  S.Dists.assign(N, std::numeric_limits<double>::infinity());
  uint64_t MinBits = ~uint64_t(0);
  for (size_t Pos = 0; Pos < Keep; ++Pos) {
    S.Dists[S.Candidates[Pos].second] = fromKeyBits(S.Candidates[Pos].first);
    MinBits = std::min(MinBits, S.Candidates[Pos].first);
  }
  return fromKeyBits(MinBits);
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
static void finishPValues(const double *GreaterEq, const double *Total,
                          const double *Counts, size_t NumLabels,
                          const PromConfig &Cfg, double *POut) {
  for (size_t L = 0; L < NumLabels; ++L) {
    if (Counts[L] <= 0.0) {
      // No conformity evidence for this label among the selected samples.
      POut[L] = 0.0;
      continue;
    }
    if (Cfg.SmoothedPValues) {
      // The pseudo-count is one *typical* observation (the mean weight),
      // so the minimum p-value stays ~1/(n+1) regardless of how sharply
      // the weights localize.
      double MeanW = Total[L] / Counts[L];
      POut[L] = (GreaterEq[L] + MeanW) / (Total[L] + MeanW);
    } else {
      POut[L] = Total[L] > 0.0 ? GreaterEq[L] / Total[L] : 0.0;
    }
  }
}

std::vector<double>
CalibrationStore::pValues(const CalibrationSelection &Sel, size_t Expert,
                          const std::vector<double> &TestScores,
                          const PromConfig &Cfg, bool DiscreteScores) const {
  assert(Expert < numExperts() && "expert index out of range");
  size_t N = Labels.size();
  size_t NumLabels = TestScores.size();
  std::vector<double> GreaterEq(NumLabels, 0.0);
  std::vector<double> Total(NumLabels, 0.0);
  std::vector<double> Counts(NumLabels, 0.0);
  std::vector<double> P(NumLabels, 0.0);

  CalibrationWeightMode Mode = resolveMode(Cfg, DiscreteScores);
  const std::vector<double> &Scores = ScoreColumns[Expert];

  // Accumulation runs in ascending entry-index order inside each canonical
  // block, and block partials fold in ascending block order — the scheme
  // shared with pValuesAllExperts() — so the floating-point sums do not
  // depend on how the selection was ordered or how the work was
  // partitioned.
  std::vector<uint8_t> Mask(N, 0);
  std::vector<double> WeightByEntry(N, 0.0);
  for (size_t Pos = 0; Pos < Sel.Indices.size(); ++Pos) {
    Mask[Sel.Indices[Pos]] = 1;
    WeightByEntry[Sel.Indices[Pos]] = Sel.Weights[Pos];
  }

  std::vector<double> BlockGE(NumLabels), BlockTot(NumLabels),
      BlockCnt(NumLabels);
  for (size_t B0 = 0; B0 < N; B0 += CalibrationAccumBlock) {
    size_t B1 = std::min(N, B0 + CalibrationAccumBlock);
    std::fill(BlockGE.begin(), BlockGE.end(), 0.0);
    std::fill(BlockTot.begin(), BlockTot.end(), 0.0);
    std::fill(BlockCnt.begin(), BlockCnt.end(), 0.0);
    for (size_t I = B0; I < B1; ++I) {
      if (!Mask[I])
        continue;
      int Label = Labels[I];
      if (Label < 0 || static_cast<size_t>(Label) >= NumLabels)
        continue;
      size_t L = static_cast<size_t>(Label);
      BlockCnt[L] += 1.0;
      double W = WeightByEntry[I];
      switch (Mode) {
      case CalibrationWeightMode::WeightedCount:
        // Weighted conformal counting: each calibration sample contributes
        // its Eq. (1) weight to both counts.
        BlockTot[L] += W;
        if (Scores[I] >= TestScores[L])
          BlockGE[L] += W;
        break;
      case CalibrationWeightMode::ScoreScaling:
        // The paper's literal adjustment a_i = w_i * a_i with unit counts.
        BlockTot[L] += 1.0;
        if (W * Scores[I] >= TestScores[L])
          BlockGE[L] += 1.0;
        break;
      case CalibrationWeightMode::None:
        BlockTot[L] += 1.0;
        if (Scores[I] >= TestScores[L])
          BlockGE[L] += 1.0;
        break;
      }
    }
    for (size_t L = 0; L < NumLabels; ++L) {
      GreaterEq[L] += BlockGE[L];
      Total[L] += BlockTot[L];
      Counts[L] += BlockCnt[L];
    }
  }

  finishPValues(GreaterEq.data(), Total.data(), Counts.data(), NumLabels,
                Cfg, P.data());
  return P;
}

void CalibrationStore::resolveExpertModes(const PromConfig &Cfg,
                                          const uint8_t *DiscreteFlags,
                                          AssessmentScratch &S) const {
  size_t NumExp = numExperts();
  bool AnyDiscrete = false;
  if (DiscreteFlags)
    for (size_t E = 0; E < NumExp; ++E)
      AnyDiscrete |= DiscreteFlags[E] != 0;

  S.Modes.resize(NumExp);
  S.Columns.resize(NumExp);
  S.UniformModes = true;
  for (size_t E = 0; E < NumExp; ++E) {
    S.Modes[E] = AnyDiscrete ? resolveMode(Cfg, DiscreteFlags[E] != 0)
                             : Cfg.WeightMode;
    S.UniformModes &= S.Modes[E] == S.Modes[0];
    S.Columns[E] = ScoreColumns[E].data();
  }
}

void CalibrationStore::accumulateBlock(const AssessmentScratch &S,
                                       const double *TestScores,
                                       size_t NumLabels, size_t Begin,
                                       size_t End, double *GreaterEq,
                                       double *Total, double *Counts) const {
  size_t NumExp = numExperts();
  const CalibrationWeightMode *Modes = S.Modes.data();
  const double *const *Columns = S.Columns.data();

  auto ForEachSelected = [&](auto &&Body) {
    for (size_t I = Begin; I < End; ++I) {
      if (!S.selected(I))
        continue;
      int Label = Labels[I];
      if (Label < 0 || static_cast<size_t>(Label) >= NumLabels)
        continue;
      size_t L = static_cast<size_t>(Label);
      Counts[L] += 1.0;
      Body(I, L, S.weight(I));
    }
  };

  if (S.UniformModes && Modes[0] == CalibrationWeightMode::WeightedCount) {
    // The default configuration: branch-free weighted counting.
    ForEachSelected([&](size_t I, size_t L, double W) {
      for (size_t E = 0; E < NumExp; ++E) {
        size_t Cell = E * NumLabels + L;
        Total[Cell] += W;
        if (Columns[E][I] >= TestScores[Cell])
          GreaterEq[Cell] += W;
      }
    });
  } else {
    ForEachSelected([&](size_t I, size_t L, double W) {
      for (size_t E = 0; E < NumExp; ++E) {
        size_t Cell = E * NumLabels + L;
        switch (Modes[E]) {
        case CalibrationWeightMode::WeightedCount:
          Total[Cell] += W;
          if (Columns[E][I] >= TestScores[Cell])
            GreaterEq[Cell] += W;
          break;
        case CalibrationWeightMode::ScoreScaling:
          Total[Cell] += 1.0;
          if (W * Columns[E][I] >= TestScores[Cell])
            GreaterEq[Cell] += 1.0;
          break;
        case CalibrationWeightMode::None:
          Total[Cell] += 1.0;
          if (Columns[E][I] >= TestScores[Cell])
            GreaterEq[Cell] += 1.0;
          break;
        }
      }
    });
  }
}

void CalibrationStore::pValuesAllExperts(AssessmentScratch &S,
                                         const double *TestScores,
                                         size_t NumLabels,
                                         const PromConfig &Cfg,
                                         const uint8_t *DiscreteFlags,
                                         double *PValsOut) const {
  assert(!Shards.empty() && "pValuesAllExperts before finalize");
  assert(S.Dists.size() == Labels.size() &&
         "scratch holds no selection over this store");
  size_t NumExp = numExperts();
  size_t Cells = NumExp * NumLabels;
  size_t K = Shards.size();
  bool FanOut = K > 1 && Labels.size() >= MinEntriesForFanOut;

  S.GreaterEq.assign(Cells, 0.0);
  S.Total.assign(Cells, 0.0);
  S.Counts.assign(NumLabels, 0.0);

  // Every shard folds its own canonical blocks into per-block partials;
  // the merge walks the blocks in ascending order on this thread,
  // reproducing the serial block fold exactly.
  resolveExpertModes(Cfg, DiscreteFlags, S);
  size_t NumBlocks = numAccumBlocks();
  S.BlockGreaterEq.assign(NumBlocks * Cells, 0.0);
  S.BlockTotal.assign(NumBlocks * Cells, 0.0);
  S.BlockCounts.assign(NumBlocks * NumLabels, 0.0);

  auto AccumulateShard = [&](size_t SI) {
    const Shard &Sh = Shards[SI];
    for (size_t B0 = Sh.Begin; B0 < Sh.End; B0 += CalibrationAccumBlock) {
      size_t Block = B0 / CalibrationAccumBlock;
      size_t B1 = std::min(Sh.End, B0 + CalibrationAccumBlock);
      accumulateBlock(S, TestScores, NumLabels, B0, B1,
                      S.BlockGreaterEq.data() + Block * Cells,
                      S.BlockTotal.data() + Block * Cells,
                      S.BlockCounts.data() + Block * NumLabels);
    }
  };
  if (FanOut)
    support::ThreadPool::global().parallelFor(
        K, [&](size_t Begin, size_t End) {
          for (size_t SI = Begin; SI < End; ++SI)
            AccumulateShard(SI);
        });
  else
    for (size_t SI = 0; SI < K; ++SI)
      AccumulateShard(SI);

  for (size_t Block = 0; Block < NumBlocks; ++Block) {
    const double *GE = S.BlockGreaterEq.data() + Block * Cells;
    const double *Tot = S.BlockTotal.data() + Block * Cells;
    const double *Cnt = S.BlockCounts.data() + Block * NumLabels;
    for (size_t Cell = 0; Cell < Cells; ++Cell) {
      S.GreaterEq[Cell] += GE[Cell];
      S.Total[Cell] += Tot[Cell];
    }
    for (size_t L = 0; L < NumLabels; ++L)
      S.Counts[L] += Cnt[L];
  }

  for (size_t E = 0; E < NumExp; ++E)
    finishPValues(S.GreaterEq.data() + E * NumLabels,
                  S.Total.data() + E * NumLabels, S.Counts.data(), NumLabels,
                  Cfg, PValsOut + E * NumLabels);
}

double prom::confidenceFromSetSize(size_t Size, double C) {
  assert(C > 0.0 && "Gaussian scale must be positive");
  double D = static_cast<double>(Size) - 1.0;
  return std::exp(-(D * D) / (2.0 * C * C));
}
