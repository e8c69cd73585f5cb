//===- tests/SupportTest.cpp - support library tests ------------*- C++ -*-===//

#include "support/Hashing.h"
#include "support/Random.h"
#include "support/SourceText.h"
#include "support/ThreadPool.h"

#include "Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

using namespace csspgo;

TEST(Hashing, Deterministic) {
  EXPECT_EQ(hashBytes("hello"), hashBytes("hello"));
  EXPECT_NE(hashBytes("hello"), hashBytes("hellp"));
  EXPECT_EQ(computeFunctionGuid("foo"), computeFunctionGuid("foo"));
}

TEST(Hashing, GuidNeverZero) {
  EXPECT_NE(computeFunctionGuid(""), 0u);
  EXPECT_NE(computeFunctionGuid("a"), 0u);
}

TEST(Hashing, CombineOrderSensitive) {
  uint64_t A = hashCombine(hashCombine(0, 1), 2);
  uint64_t B = hashCombine(hashCombine(0, 2), 1);
  EXPECT_NE(A, B);
}

TEST(Random, Reproducible) {
  Rng R1(42), R2(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(R1.next(), R2.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng R1(1), R2(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += R1.next() == R2.next();
  EXPECT_LT(Same, 4);
}

TEST(Random, BelowRespectsBound) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Random, RangeInclusive) {
  Rng R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I != 200; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Random, DoubleInUnitInterval) {
  Rng R(11);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, BoolProbabilityExtremes) {
  Rng R(13);
  for (int I = 0; I != 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Random, BoolProbabilityRoughlyCorrect) {
  Rng R(17);
  int Hits = 0;
  for (int I = 0; I != 10000; ++I)
    Hits += R.nextBool(0.3);
  EXPECT_NEAR(Hits / 10000.0, 0.3, 0.03);
}

TEST(Random, PickWeightedSkew) {
  Rng R(19);
  std::vector<double> W = {1.0, 9.0};
  int Second = 0;
  for (int I = 0; I != 10000; ++I)
    Second += R.pickWeighted(W) == 1;
  EXPECT_NEAR(Second / 10000.0, 0.9, 0.03);
}

TEST(Random, PickWeightedIgnoresNegativeAndZero) {
  Rng R(23);
  std::vector<double> W = {0.0, -5.0, 2.0};
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(R.pickWeighted(W), 2u);
}

TEST(SourceText, Percent) {
  EXPECT_EQ(formatSignedPercent(3.417), "+3.42%");
  EXPECT_EQ(formatSignedPercent(-1.0), "-1.00%");
  EXPECT_EQ(formatPercent(12.34), "12.3%");
}

TEST(SourceText, Bytes) {
  EXPECT_EQ(formatBytes(100), "100 B");
  EXPECT_EQ(formatBytes(2048), "2.0 KiB");
  EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(SourceText, Pad) {
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padRight("abcd", 2), "abcd");
}

TEST(SourceText, Split) {
  auto P = splitString("a:b::c", ':');
  ASSERT_EQ(P.size(), 4u);
  EXPECT_EQ(P[0], "a");
  EXPECT_EQ(P[2], "");
  EXPECT_EQ(P[3], "c");
}

TEST(SourceText, TableRenders) {
  TextTable T({"name", "value"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22"});
  std::string S = T.render();
  EXPECT_NE(S.find("alpha"), std::string::npos);
  EXPECT_NE(S.find("-----"), std::string::npos);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.concurrency(), 3u);
  std::atomic<int> Counter{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 32; ++I)
    Futures.push_back(Pool.async([&Counter] { ++Counter; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Counter.load(), 32);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelFor(Hits.size(), [&Hits](size_t I) { ++Hits[I]; });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, TaskExceptionsPropagateToCaller) {
  ThreadPool Pool(2);
  EXPECT_THROW(
      Pool.parallelFor(4,
                       [](size_t I) {
                         if (I == 2)
                           throw std::runtime_error("shard failed");
                       }),
      std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> Counter{0};
  Pool.parallelFor(8, [&Counter](size_t) { ++Counter; });
  EXPECT_EQ(Counter.load(), 8);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> Counter{0};
  {
    ThreadPool Pool(1);
    for (int I = 0; I != 16; ++I)
      Pool.async([&Counter] { ++Counter; });
  } // Destructor joins after draining.
  EXPECT_EQ(Counter.load(), 16);
}

TEST(ThreadPool, ForEachIndexFillsSlotsAlikeAtAnyJobCount) {
  // Jobs <= 1 runs inline in index order; more jobs fan out over a pool.
  // Index-addressed results do not depend on which path ran.
  for (size_t Count : {0u, 1u, 7u}) {
    std::vector<size_t> Serial(Count), Pooled(Count), Order;
    forEachIndex(Count, 1, [&](size_t I) {
      Serial[I] = I * I;
      Order.push_back(I);
    });
    forEachIndex(Count, 4, [&](size_t I) { Pooled[I] = I * I; });
    EXPECT_EQ(Serial, Pooled) << Count << " tasks";
    for (size_t I = 0; I != Order.size(); ++I)
      EXPECT_EQ(Order[I], I);
  }
  EXPECT_THROW(forEachIndex(3, 2,
                            [](size_t I) {
                              if (I == 1)
                                throw std::runtime_error("task failed");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}
