#include "core/similarity_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/similarity.h"
#include "obs/trace.h"

namespace homets::core {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<std::vector<double>> RandomWindows(size_t count, size_t bins,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> windows(count);
  for (auto& w : windows) {
    w.resize(bins);
    for (auto& v : w) v = rng.LogNormal(std::log(500.0), 1.0);
  }
  return windows;
}

TEST(SimilarityMatrixTest, CondensedIndexRoundTrips) {
  for (const size_t n : {2u, 3u, 7u, 40u}) {
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++k) {
        EXPECT_EQ(SimilarityMatrix::CondensedIndex(n, i, j), k);
        EXPECT_EQ(SimilarityMatrix::CondensedIndex(n, j, i), k);  // symmetric
        const auto [pi, pj] = SimilarityMatrix::PairAt(n, k);
        EXPECT_EQ(pi, i);
        EXPECT_EQ(pj, j);
      }
    }
    EXPECT_EQ(SimilarityMatrix(n).pair_count(), n * (n - 1) / 2);
  }
}

TEST(SimilarityEngineTest, MatchesLegacyVectorPathBitwise) {
  const auto windows = RandomWindows(24, 56, 7);
  const SimilarityEngine engine;
  const SimilarityMatrix matrix =
      engine.Pairwise(SimilarityEngine::PrepareVectors(windows)).value();
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      const SimilarityResult legacy =
          CorrelationSimilarity(windows[i], windows[j]);
      const SimilarityResult& fast = matrix.At(i, j);
      EXPECT_TRUE(SameBits(fast.value, legacy.value));
      EXPECT_EQ(fast.source, legacy.source);
      EXPECT_EQ(fast.significant, legacy.significant);
      EXPECT_EQ(fast.n, legacy.n);
    }
  }
}

TEST(SimilarityEngineTest, DeterministicAcrossThreadCounts) {
  // 48 windows -> 1128 pairs, above the 256-pair serial cutoff, so the pool
  // engages.
  const auto windows = RandomWindows(48, 56, 8);
  const auto prepared = SimilarityEngine::PrepareVectors(windows);
  std::vector<SimilarityResult> reference;
  for (const int threads : {1, 4, ResolveThreadCount(0)}) {
    SimilarityEngineOptions options;
    options.threads = threads;
    const SimilarityMatrix matrix =
        SimilarityEngine(options).Pairwise(prepared).value();
    if (reference.empty()) {
      reference = matrix.cells();
      continue;
    }
    ASSERT_EQ(matrix.cells().size(), reference.size());
    for (size_t k = 0; k < reference.size(); ++k) {
      EXPECT_TRUE(SameBits(matrix.cells()[k].value, reference[k].value))
          << "pair " << k << " at " << threads << " threads";
      EXPECT_EQ(matrix.cells()[k].source, reference[k].source);
    }
  }
}

TEST(SimilarityEngineTest, HandlesDegenerateWindows) {
  // Constant, NaN-laden and short windows must flow through the engine the
  // same way the legacy path treats them: value 0, not errors or crashes.
  std::vector<std::vector<double>> windows = {
      std::vector<double>(10, 3.0),                    // constant
      {1.0, std::nan(""), 2.0, 4.0, 1.0, 0.5, 2.0, 3.0, 1.0, 2.0},  // NaN
      {1.0, 2.0},                                      // too short
  };
  for (auto& w : RandomWindows(3, 10, 9)) windows.push_back(std::move(w));
  const SimilarityEngine engine;
  const SimilarityMatrix matrix =
      engine.Pairwise(SimilarityEngine::PrepareVectors(windows)).value();
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      const SimilarityResult legacy =
          CorrelationSimilarity(windows[i], windows[j]);
      EXPECT_TRUE(SameBits(matrix.At(i, j).value, legacy.value));
    }
  }
}

TEST(SimilarityEngineTest, PairwiseSelectedMatchesFullMatrix) {
  const auto windows = RandomWindows(12, 21, 10);
  const auto prepared = SimilarityEngine::PrepareVectors(windows);
  const SimilarityEngine engine;
  const SimilarityMatrix full = engine.Pairwise(prepared).value();
  // An arbitrary subset, out of row-major order.
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {
      {3, 9}, {0, 1}, {5, 6}, {0, 11}, {2, 7}};
  const std::vector<SimilarityResult> selected =
      engine.PairwiseSelected(prepared, pairs);
  ASSERT_EQ(selected.size(), pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    EXPECT_TRUE(SameBits(selected[k].value,
                         full.At(pairs[k].first, pairs[k].second).value));
  }
}

TEST(SimilarityEngineTest, CondensedDistancesMatchCorrelationDistance) {
  const auto windows = RandomWindows(10, 56, 11);
  const SimilarityEngine engine;
  const SimilarityMatrix matrix =
      engine.Pairwise(SimilarityEngine::PrepareVectors(windows)).value();
  const std::vector<double> distances = matrix.CondensedDistances();
  ASSERT_EQ(distances.size(), matrix.pair_count());
  size_t k = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j, ++k) {
      EXPECT_TRUE(SameBits(distances[k],
                           CorrelationDistance(windows[i], windows[j])));
    }
  }
  EXPECT_DOUBLE_EQ(matrix.Value(3, 3), 1.0);  // diagonal convention
}

TEST(SimilarityEngineCheckedTest, MatchesPairwiseBitwiseWithNoFaults) {
  // With no failpoint armed the fault paths must cost nothing: degrade mode
  // equals strict mode bit for bit, at one worker and at four.
  Failpoints::Global().Reset();
  const auto windows = RandomWindows(48, 56, 12);
  const auto prepared = SimilarityEngine::PrepareVectors(windows);
  for (const int threads : {1, 4}) {
    SimilarityEngineOptions strict_options;
    strict_options.threads = threads;
    SimilarityEngineOptions degrade_options = strict_options;
    degrade_options.degrade_on_failure = true;
    const Result<SimilarityMatrix> strict =
        SimilarityEngine(strict_options).Pairwise(prepared);
    const Result<SimilarityMatrix> degrade =
        SimilarityEngine(degrade_options).Pairwise(prepared);
    ASSERT_TRUE(strict.ok()) << strict.status().ToString();
    ASSERT_TRUE(degrade.ok()) << degrade.status().ToString();
    EXPECT_TRUE(strict->complete());
    EXPECT_TRUE(degrade->complete());
    ASSERT_EQ(degrade->cells().size(), strict->cells().size());
    for (size_t k = 0; k < strict->cells().size(); ++k) {
      EXPECT_TRUE(SameBits(degrade->cells()[k].value, strict->cells()[k].value))
          << "pair " << k << " at " << threads << " threads";
      EXPECT_EQ(degrade->cells()[k].source, strict->cells()[k].source);
    }
  }
}

TEST(SimilarityEngineCheckedTest, PreCancelledTokenReturnsCancelled) {
  const auto prepared =
      SimilarityEngine::PrepareVectors(RandomWindows(10, 21, 13));
  CancellationToken cancel;
  cancel.Cancel();
  SimilarityEngineOptions options;
  options.cancel = &cancel;
  const Result<SimilarityMatrix> checked =
      SimilarityEngine(options).Pairwise(prepared);
  EXPECT_EQ(checked.status().code(), StatusCode::kCancelled);
}

TEST(SimilarityEngineCheckedTest, InjectedBlockFailureIsAnErrorByDefault) {
  Failpoints::Global().Reset();
  ASSERT_TRUE(Failpoints::Global().Configure("engine.pair_block=fail*1").ok());
  // 20 windows -> 190 pairs, below the 256-pair serial cutoff, so this runs
  // single threaded and the failing block is deterministically block 0.
  const auto prepared =
      SimilarityEngine::PrepareVectors(RandomWindows(20, 21, 15));
  const Result<SimilarityMatrix> checked =
      SimilarityEngine().Pairwise(prepared);
  Failpoints::Global().Reset();
  EXPECT_EQ(checked.status().code(), StatusCode::kComputeError);
}

TEST(SimilarityEngineCheckedTest, DegradeModeMasksFailedBlockAndContinues) {
  Failpoints::Global().Reset();
  ASSERT_TRUE(Failpoints::Global().Configure("engine.pair_block=fail*1").ok());
  const auto windows = RandomWindows(20, 21, 15);
  const auto prepared = SimilarityEngine::PrepareVectors(windows);
  SimilarityEngineOptions options;
  options.degrade_on_failure = true;
  const Result<SimilarityMatrix> checked =
      SimilarityEngine(options).Pairwise(prepared);
  Failpoints::Global().Reset();
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  // Single-threaded (190 pairs), so exactly the first 64-pair block is lost.
  EXPECT_FALSE(checked->complete());
  EXPECT_EQ(checked->invalid_count(), 64u);
  const SimilarityMatrix reference =
      SimilarityEngine().Pairwise(prepared).value();
  const std::vector<double> distances = checked->CondensedDistances();
  for (size_t k = 0; k < checked->pair_count(); ++k) {
    if (k < 64) {
      EXPECT_FALSE(checked->IsValidIndex(k));
      EXPECT_DOUBLE_EQ(distances[k], 1.0);  // invalid -> maximum distance
    } else {
      EXPECT_TRUE(checked->IsValidIndex(k));
      EXPECT_TRUE(
          SameBits(checked->cells()[k].value, reference.cells()[k].value));
    }
  }
  const auto [i, j] = SimilarityMatrix::PairAt(prepared.size(), 0);
  EXPECT_FALSE(checked->IsValid(i, j));
  EXPECT_TRUE(checked->IsValid(i, i));  // diagonal is always valid
}

TEST(SimilarityEngineTest, RecordsPairwiseSpan) {
  // The engine keeps no clock of its own: its time reaches the installed
  // trace session as one span per pairwise run.
  obs::TraceSession session;
  obs::InstallGlobalTraceSession(&session);
  const auto prepared =
      SimilarityEngine::PrepareVectors(RandomWindows(8, 21, 16));
  const bool ok = SimilarityEngine().Pairwise(prepared).ok();
  obs::InstallGlobalTraceSession(nullptr);
  EXPECT_TRUE(ok);
  ASSERT_EQ(session.size(), 1u);
  EXPECT_EQ(session.Events()[0].name, "similarity_engine.pairwise");
}

}  // namespace
}  // namespace homets::core
