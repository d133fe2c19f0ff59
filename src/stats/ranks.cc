#include "stats/ranks.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>

namespace homets::stats {

namespace {

// Below this size the comparison sort beats the radix sort's fixed cost
// (eight histograms of 256 buckets and an index buffer); measured on a
// 4-core Xeon, GCC 12.2, Release, the two cross between 1,500 and 2,000
// values, and radix-sorting every size lowered analyze_long's throughput.
constexpr size_t kRadixMinSize = 2048;

constexpr int kDigitBits = 8;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr int kDigits = 64 / kDigitBits;

// Order-preserving key of a non-zero, non-NaN double: a < b iff
// key(a) < key(b) as unsigned integers. Positive values get the sign bit
// set; negative values are bit-inverted so larger magnitudes sort first.
uint64_t OrderedKey(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits ^ ((0 - (bits >> 63)) | (uint64_t{1} << 63));
}

bool HasNaN(const std::vector<double>& xs) {
  return std::any_of(xs.begin(), xs.end(),
                     [](double v) { return std::isnan(v); });
}

// Stable LSD radix sort of the indices in `order` by the keys of their
// values, one pass per 8-bit digit; a pass whose digit is the same for every
// key moves nothing and is skipped. Keys are recomputed from `xs` on each
// pass rather than stored, which keeps the scratch to one index buffer.
void RadixSortIndices(const std::vector<double>& xs,
                      std::vector<uint32_t>* order) {
  const size_t n = order->size();
  if (n == 0) return;
  std::array<std::array<uint32_t, kBuckets>, kDigits> counts{};
  for (uint32_t i : *order) {
    const uint64_t k = OrderedKey(xs[i]);
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d][(k >> (d * kDigitBits)) & (kBuckets - 1)];
    }
  }
  const uint64_t any_key = OrderedKey(xs[(*order)[0]]);
  std::vector<uint32_t> out(n);
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kDigitBits;
    auto& slot = counts[d];
    if (slot[(any_key >> shift) & (kBuckets - 1)] == n) continue;
    uint32_t next = 0;
    for (uint32_t& c : slot) {
      const uint32_t count = c;
      c = next;
      next += count;
    }
    for (uint32_t i : *order) {
      out[slot[(OrderedKey(xs[i]) >> shift) & (kBuckets - 1)]++] = i;
    }
    order->swap(out);
  }
}

}  // namespace

std::vector<uint32_t> StableOrder(const std::vector<double>& xs) {
  const size_t n = xs.size();
  if (n < kRadixMinSize || HasNaN(xs)) {
    // NaN has no place in the keys' total order; keep the comparison sort's
    // arrangement for it.
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&xs](uint32_t a, uint32_t b) { return xs[a] < xs[b]; });
    return order;
  }
  // Exact zeros of either sign are one tie group, already in index order:
  // they are set aside and only the other values are radix-sorted.
  std::vector<uint32_t> zeros, order;
  order.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (xs[i] == 0.0) {
      zeros.push_back(i);
    } else {
      order.push_back(i);
    }
  }
  RadixSortIndices(xs, &order);
  // The zeros go after the negative values.
  const auto negatives =
      std::partition_point(order.begin(), order.end(),
                           [&xs](uint32_t i) { return xs[i] < 0.0; });
  order.insert(negatives, zeros.begin(), zeros.end());
  return order;
}

std::vector<uint32_t> TieGroupOffsets(const std::vector<double>& xs,
                                      const std::vector<uint32_t>& order) {
  std::vector<uint32_t> offsets{0};
  const size_t n = order.size();
  for (size_t i = 1; i < n; ++i) {
    if (xs[order[i]] != xs[order[i - 1]]) {
      offsets.push_back(static_cast<uint32_t>(i));
    }
  }
  if (n > 0) offsets.push_back(static_cast<uint32_t>(n));
  return offsets;
}

std::vector<double> AverageRanks(const std::vector<uint32_t>& order,
                                 const std::vector<uint32_t>& offsets) {
  std::vector<double> ranks(order.size(), 0.0);
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    // Positions i..j (0-based) tie; average rank is the mean of i+1..j+1.
    const size_t i = offsets[g];
    const size_t j = offsets[g + 1] - 1;
    const double avg =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
  }
  return ranks;
}

std::vector<double> AverageRanks(const std::vector<double>& xs) {
  const std::vector<uint32_t> order = StableOrder(xs);
  return AverageRanks(order, TieGroupOffsets(xs, order));
}

std::vector<size_t> TieGroupSizes(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  std::vector<size_t> groups;
  size_t i = 0;
  const size_t n = xs.size();
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[j + 1] == xs[i]) ++j;
    const size_t size = j - i + 1;
    if (size >= 2) groups.push_back(size);
    i = j + 1;
  }
  return groups;
}

}  // namespace homets::stats
