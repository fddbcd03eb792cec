//===- tests/ThreadPoolTest.cpp - worker pool tests ---------------------------===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <vector>

using prom::support::ThreadPool;

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1013);
  Pool.parallelFor(Hits.size(), [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Hits[I].fetch_add(1);
  });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ChunksAreContiguousAndOrderedWithinRange) {
  ThreadPool Pool(3);
  std::mutex M;
  std::vector<std::pair<size_t, size_t>> Ranges;
  Pool.parallelFor(100, [&](size_t Begin, size_t End) {
    EXPECT_LT(Begin, End);
    std::lock_guard<std::mutex> Lock(M);
    Ranges.push_back({Begin, End});
  });
  // Ranges must tile [0, 100) without overlap.
  std::sort(Ranges.begin(), Ranges.end());
  size_t Expect = 0;
  for (const auto &[Begin, End] : Ranges) {
    EXPECT_EQ(Begin, Expect);
    Expect = End;
  }
  EXPECT_EQ(Expect, 100u);
}

TEST(ThreadPoolTest, DeterministicResultsAcrossThreadCounts) {
  // The same reduction, written per-slot, must be identical no matter how
  // many workers execute it.
  auto Run = [](size_t Threads) {
    ThreadPool Pool(Threads);
    std::vector<double> Out(512);
    Pool.parallelFor(Out.size(), [&](size_t Begin, size_t End) {
      for (size_t I = Begin; I < End; ++I)
        Out[I] = static_cast<double>(I) * 1.5 + 1.0 / (1.0 + I);
    });
    return Out;
  };
  std::vector<double> One = Run(1), Four = Run(4), Seven = Run(7);
  for (size_t I = 0; I < One.size(); ++I) {
    EXPECT_EQ(One[I], Four[I]);
    EXPECT_EQ(One[I], Seven[I]);
  }
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  size_t Calls = 0;
  Pool.parallelFor(10, [&](size_t Begin, size_t End) {
    ++Calls;
    EXPECT_EQ(Begin, 0u);
    EXPECT_EQ(End, 10u);
  });
  EXPECT_EQ(Calls, 1u); // One inline chunk, no partitioning.
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool Pool(2);
  bool Called = false;
  Pool.parallelFor(0, [&](size_t, size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  ThreadPool Pool(4);
  for (int Round = 0; Round < 50; ++Round) {
    std::atomic<long> Sum{0};
    Pool.parallelFor(200, [&](size_t Begin, size_t End) {
      long Local = 0;
      for (size_t I = Begin; I < End; ++I)
        Local += static_cast<long>(I);
      Sum.fetch_add(Local);
    });
    EXPECT_EQ(Sum.load(), 199L * 200L / 2L);
  }
}

TEST(NestedParallelForTest, RunsInlineInsteadOfDeadlocking) {
  ThreadPool Pool(4);
  std::atomic<int> Inner{0};
  Pool.parallelFor(8, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      ThreadPool::global().parallelFor(4, [&](size_t B, size_t E) {
        Inner.fetch_add(static_cast<int>(E - B));
      });
  });
  EXPECT_EQ(Inner.load(), 32);
}

TEST(NestedParallelForTest, SamePoolNestingRunsInline) {
  // The k-means fan-out of a refinalize() index rebuild nests directly on
  // the same pool when a refresh is driven from inside an assessment
  // region (a service worker calling back into the store); both the worker
  // lanes and the participating caller lane must degrade to inline
  // execution.
  ThreadPool Pool(4);
  std::atomic<int> Inner{0};
  Pool.parallelFor(8, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I)
      Pool.parallelFor(4, [&](size_t B, size_t E) {
        Inner.fetch_add(static_cast<int>(E - B));
      });
  });
  EXPECT_EQ(Inner.load(), 32);
}

TEST(NestedParallelForTest, ExternalThreadsContendingForThePoolStaySafe) {
  // The self-recalibrating server's steady state: service batcher threads
  // drive assessment fan-outs while the RecalibrationController thread
  // drives the k-means fan-outs of refinalize() index rebuilds on the same
  // global pool. Regions must
  // serialize without deadlock and every region must stay exact.
  ThreadPool Pool(4);
  constexpr size_t Callers = 3, Rounds = 40, N = 257;
  std::atomic<size_t> Failures{0};
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Callers; ++C)
    Threads.emplace_back([&, C] {
      std::vector<int> Out(N);
      for (size_t Round = 0; Round < Rounds; ++Round) {
        std::fill(Out.begin(), Out.end(), 0);
        Pool.parallelFor(N, [&](size_t Begin, size_t End) {
          for (size_t I = Begin; I < End; ++I)
            Out[I] += static_cast<int>(C + 1);
        });
        for (size_t I = 0; I < N; ++I)
          if (Out[I] != static_cast<int>(C + 1))
            Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}
