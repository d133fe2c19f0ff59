#include "core/similarity_engine.h"

#include <cmath>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace homets::core {

std::vector<double> SimilarityMatrix::CondensedDistances() const {
  std::vector<double> distances(cells_.size());
  for (size_t k = 0; k < cells_.size(); ++k) {
    distances[k] = IsValidIndex(k) ? 1.0 - cells_[k].value : 1.0;
  }
  return distances;
}

size_t SimilarityMatrix::invalid_count() const {
  size_t count = 0;
  for (const uint8_t flag : invalid_) count += flag;
  return count;
}

std::pair<size_t, size_t> SimilarityMatrix::PairAt(size_t n, size_t k) {
  // Row i owns indices [offset(i), offset(i+1)) with
  // offset(i) = i*n − i(i+1)/2. Invert with a float guess, then fix up.
  const double nf = static_cast<double>(n);
  const double kf = static_cast<double>(k);
  double guess =
      (2.0 * nf - 1.0 - std::sqrt((2.0 * nf - 1.0) * (2.0 * nf - 1.0) -
                                  8.0 * kf)) /
      2.0;
  size_t i = guess <= 0.0 ? 0 : static_cast<size_t>(guess);
  if (i >= n - 1) i = n - 2;
  auto offset = [n](size_t row) { return row * n - row * (row + 1) / 2; };
  while (i > 0 && offset(i) > k) --i;
  while (offset(i + 1) <= k) ++i;
  return {i, i + 1 + (k - offset(i))};
}

std::vector<correlation::PreparedSeries> SimilarityEngine::PrepareWindows(
    const std::vector<ts::TimeSeries>& windows) {
  std::vector<correlation::PreparedSeries> prepared;
  prepared.reserve(windows.size());
  for (const auto& window : windows) {
    prepared.push_back(correlation::PreparedSeries::Make(window.values()));
  }
  return prepared;
}

std::vector<correlation::PreparedSeries> SimilarityEngine::PrepareVectors(
    const std::vector<std::vector<double>>& series) {
  std::vector<correlation::PreparedSeries> prepared;
  prepared.reserve(series.size());
  for (const auto& values : series) {
    prepared.push_back(correlation::PreparedSeries::Make(values));
  }
  return prepared;
}

namespace {

// ~64 pairs per dispatch block: coarse enough to amortize the atomic
// hand-off, fine enough to balance tie-heavy vs degenerate pairs.
constexpr size_t kPairsPerBlock = 64;

// Workloads below this many pairs run on one worker — thread spawn would
// cost more than the work.
constexpr size_t kMinParallelPairs = 256;

// The engine's one per-pair block loop: output slot k of `out` receives
// Definition 1 of the pair `walk` names for it — `walk(begin, end, visit)`
// calls visit(k, i, j) for every k in [begin, end). With `matrix` set (the
// full matrix, whose cells are `out`) blocks run through ParallelForStatus,
// so options.cancel and the failpoints apply; without it they run through
// ParallelFor, where nothing is injected and nothing can fail.
template <typename Walk>
Status ComputePairs(const SimilarityEngineOptions& options,
                    const std::vector<correlation::PreparedSeries>& prepared,
                    size_t count, const Walk& walk, SimilarityResult* out,
                    SimilarityMatrix* matrix) {
  if (count == 0) return Status::OK();
  static obs::Counter* const pairs_computed =
      obs::MetricsRegistry::Global().GetCounter(obs::kEnginePairsComputed);
  obs::ScopedSpan span("similarity_engine.pairwise");
  const int threads = count < kMinParallelPairs ? 1 : options.threads;
  std::vector<correlation::PairWorkspace> workspaces(
      static_cast<size_t>(ResolveThreadCount(threads)));
  // One stage lookup up front; per-block ticks are then two relaxed adds
  // (nullptr when no tracker is installed — every run without --progress).
  obs::ProgressTracker::Stage* progress =
      obs::ProgressStage("engine.pairwise");
  if (progress != nullptr) progress->AddTotal(count);
  const auto compute = [&](size_t begin, size_t end, int worker) {
    correlation::PairWorkspace& ws = workspaces[static_cast<size_t>(worker)];
    walk(begin, end, [&](size_t k, size_t i, size_t j) {
      out[k] = CorrelationSimilarity(prepared[i], prepared[j],
                                     options.similarity, &ws);
    });
    if (progress != nullptr) progress->Tick(end - begin);
  };
  Status status = Status::OK();
  if (matrix == nullptr) {
    ParallelFor(count, threads, kPairsPerBlock, compute);
  } else {
    status = ParallelForStatus(
        count, threads, kPairsPerBlock, options.cancel,
        [&](size_t begin, size_t end, int worker) -> Status {
          if (EvaluateFailpoint(kFailpointEnginePairBlock) ==
              FailpointAction::kFail) {
            if (!options.degrade_on_failure) {
              return Status::ComputeError(
                  "injected by failpoint 'engine.pair_block'");
            }
            for (size_t k = begin; k < end; ++k) matrix->MarkInvalid(k);
            return Status::OK();
          }
          compute(begin, end, worker);
          return Status::OK();
        });
  }
  pairs_computed->Increment(count);
  return status;
}

}  // namespace

Result<SimilarityMatrix> SimilarityEngine::Pairwise(
    const std::vector<correlation::PreparedSeries>& prepared) const {
  const size_t n = prepared.size();
  SimilarityMatrix matrix(n);
  // The mask must exist before workers can mark blocks concurrently.
  if (options_.degrade_on_failure) matrix.EnsureValidityMask();
  // Cells are row-major (i, j), i < j: one PairAt per block, then a walk.
  const auto walk = [n](size_t begin, size_t end, const auto& visit) {
    auto [i, j] = SimilarityMatrix::PairAt(n, begin);
    for (size_t k = begin; k < end; ++k) {
      visit(k, i, j);
      if (++j == n) {
        ++i;
        j = i + 1;
      }
    }
  };
  HOMETS_RETURN_IF_ERROR(ComputePairs(options_, prepared, matrix.pair_count(),
                                      walk, matrix.mutable_cells(), &matrix));
  return matrix;
}

std::vector<SimilarityResult> SimilarityEngine::PairwiseSelected(
    const std::vector<correlation::PreparedSeries>& prepared,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) const {
  std::vector<SimilarityResult> results(pairs.size());
  const auto walk = [&pairs](size_t begin, size_t end, const auto& visit) {
    for (size_t k = begin; k < end; ++k) {
      visit(k, pairs[k].first, pairs[k].second);
    }
  };
  // Without a matrix the loop runs no fault path, so it cannot fail.
  static_cast<void>(ComputePairs(options_, prepared, pairs.size(), walk,
                                 results.data(), nullptr));
  return results;
}

}  // namespace homets::core
