#ifndef HOMETS_STATS_RANKS_H_
#define HOMETS_STATS_RANKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace homets::stats {

/// \brief Stable ascending order of `xs`: exactly the permutation
/// `std::stable_sort` over the indices with `xs[a] < xs[b]` produces.
///
/// Every rank, tie and sorted-sample computation of the per-device path
/// sorts through this one primitive. NaN-free samples of at least 2,048
/// values take an LSD radix sort on order-preserving 64-bit keys, with exact
/// zeros of either sign set aside as one group (so −0.0 and +0.0 tie, in
/// index order, as they do under `<`); smaller samples, and any sample
/// holding a NaN, take the comparison sort itself. Requires
/// `xs.size() < 2^32`.
std::vector<uint32_t> StableOrder(const std::vector<double>& xs);

/// \brief Boundaries of the runs of equal values along `order` (a sort
/// order of `xs`): run g spans positions [offsets[g], offsets[g+1]), and the
/// last offset is `xs.size()`. Empty input gives {0}.
std::vector<uint32_t> TieGroupOffsets(const std::vector<double>& xs,
                                      const std::vector<uint32_t>& order);

/// \brief Fractional (average) ranks from a sort order and its tie-group
/// offsets: each value of a group gets the mean of the 1-based positions
/// the group spans.
std::vector<double> AverageRanks(const std::vector<uint32_t>& order,
                                 const std::vector<uint32_t>& offsets);

/// \brief Fractional (average) ranks, 1-based, with ties receiving the mean
/// of the ranks they span — the convention Spearman's ρ requires.
///
/// Example: {10, 20, 20, 30} → {1, 2.5, 2.5, 4}.
std::vector<double> AverageRanks(const std::vector<double>& xs);

/// \brief Tie-group sizes of the sample (groups of size >= 2 only), needed
/// by tie-corrected variance formulas (Kendall, Spearman).
std::vector<size_t> TieGroupSizes(std::vector<double> xs);

}  // namespace homets::stats

#endif  // HOMETS_STATS_RANKS_H_
