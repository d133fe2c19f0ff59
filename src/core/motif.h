#ifndef HOMETS_CORE_MOTIF_H_
#define HOMETS_CORE_MOTIF_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Provenance of a candidate window: which gateway and when.
struct WindowProvenance {
  int gateway_id = 0;
  int64_t start_minute = 0;
};

/// \brief A motif: a set of mutually similar, time-aligned windows
/// (Definition 5). `members` index into the window list given to
/// MotifDiscovery::Discover.
struct Motif {
  std::vector<size_t> members;

  size_t support() const { return members.size(); }
};

/// \brief Options for Definition 5.
struct MotifOptions {
  /// Individual-similarity threshold φ: a new window must reach cor >= φ
  /// with at least one member of the motif it joins.
  double phi = 0.8;
  /// Group similarity: every member pair must reach cor >= group_factor · φ
  /// (¾ in the paper).
  double group_factor = 0.75;
  /// Motifs are merged when all cross pairs reach this correlation.
  double merge_threshold = 0.6;
  double alpha = 0.05;  ///< significance level inside cor(·,·)
  /// Minimum support for a reported motif; support-1 "motifs" are not
  /// recurring patterns.
  size_t min_support = 2;
};

/// \brief Definition 5's membership and merge rule: the one implementation
/// that batch discovery and the streaming miner share.
///
/// Windows are named by indices that grow with arrival. Each motif keeps its
/// members in ascending order under a stable id. The caller supplies the
/// similarity as `cor(older, newer)`; it is only ever called with
/// older < newer, so each caller keeps its own similarity source (a cache
/// over all windows, or the retained profiles of a stream).
class MotifSet {
 public:
  using Similarity = std::function<double(size_t older, size_t newer)>;

  explicit MotifSet(const MotifOptions& options) : options_(options) {}

  /// Places window `w`, which must be newer than every member. It joins the
  /// motif with the highest mean similarity among those where it reaches
  /// cor >= φ with one member and cor >= group_factor · φ with every member;
  /// else it seeds a new motif. Returns the id of the motif it joined or
  /// seeded.
  size_t Place(size_t w, const Similarity& cor);

  /// Merges two motifs when all their cross pairs reach merge_threshold,
  /// always taking the lexicographically first such pair of motifs (in id
  /// order), until no pair qualifies. The merged motif keeps the older id.
  /// Returns the number of merges.
  size_t Merge(const Similarity& cor);

  /// Removes window `w` from its motif, if any; a motif left empty is
  /// dropped.
  void Remove(size_t w);

  /// Motifs with support >= min_support, by descending support; equal
  /// supports are ordered by their earliest member, so the order is a pure
  /// function of the input.
  std::vector<Motif> Reported() const;

 private:
  struct Entry {
    size_t id = 0;
    std::vector<size_t> members;  ///< ascending
  };

  MotifOptions options_;
  std::vector<Entry> motifs_;  ///< in ascending id order
  size_t next_id_ = 0;
};

/// \brief Motif miner over fixed-length, time-aligned windows.
///
/// A single greedy pass in window order (MotifSet::Place for every window)
/// followed by one run of the paper's merge rule (MotifSet::Merge). Results
/// are sorted by descending support.
class MotifDiscovery {
 public:
  explicit MotifDiscovery(MotifOptions options = {}) : options_(options) {}

  const MotifOptions& options() const { return options_; }

  /// Mines motifs from windows (all the same length; typically produced by
  /// ts::SliceWindows on aggregated, background-free traffic).
  Result<std::vector<Motif>> Discover(
      const std::vector<ts::TimeSeries>& windows) const;

 private:
  MotifOptions options_;
};

/// \brief Consensus shape of a motif: pointwise mean of the z-normalized
/// member windows. Used by benches to label motifs ("evening usage", ...).
Result<std::vector<double>> MotifShape(
    const std::vector<ts::TimeSeries>& windows, const Motif& motif);

/// \brief Support histogram (Figure 9): counts of motifs per support value.
/// Returns (support, count) pairs sorted by support.
std::vector<std::pair<size_t, size_t>> SupportHistogram(
    const std::vector<Motif>& motifs);

/// \brief Number of distinct motifs each gateway participates in
/// (Figure 10). Returns (gateway_id, motif_count) pairs for gateways with at
/// least one membership.
std::vector<std::pair<int, size_t>> MotifsPerGateway(
    const std::vector<Motif>& motifs,
    const std::vector<WindowProvenance>& provenance);

/// \brief Fraction of a motif's members that share a gateway with another
/// member — the "% occur within the same gateways" annotation of
/// Figures 11/14.
double WithinGatewayFraction(const Motif& motif,
                             const std::vector<WindowProvenance>& provenance);

}  // namespace homets::core

#endif  // HOMETS_CORE_MOTIF_H_
