// Figure 3: hierarchical clustering of traffic time series under the
// correlation-based distance 1 − cor(·,·), cut at distance 0.4
// (correlation 0.6).
#include <iostream>

#include "bench_util.h"
#include "cluster/hierarchical.h"
#include "cluster/silhouette.h"
#include "core/background.h"
#include "core/similarity_engine.h"
#include "io/table.h"
#include "ts/time_series.h"

namespace {

using namespace homets;  // NOLINT: bench binary

void Run() {
  bench::FleetCache fleet(bench::SmallConfig(12, 1));

  // One 3-hour-binned weekly series per gateway, background removed.
  std::vector<ts::TimeSeries> series;
  std::vector<int> ids;
  for (int id = 0; id < fleet.config().n_gateways; ++id) {
    const auto active = core::ActiveAggregate(fleet.Get(id));
    auto agg = ts::Aggregate(active, 180, 0, ts::AggKind::kSum);
    if (agg.ok() && agg->CountObserved() > 10) {
      series.push_back(std::move(agg).value());
      ids.push_back(id);
    }
    fleet.Evict(id);
  }

  // All pairwise 1 − cor(·,·) distances through the similarity engine: each
  // gateway series is profiled once, pairs run in parallel, and the condensed
  // result feeds the clustering matrix directly.
  const core::SimilarityEngine engine;
  const core::SimilarityMatrix sims =
      engine.Pairwise(core::SimilarityEngine::PrepareWindows(series)).value();
  auto dist = cluster::DistanceMatrix::FromCondensed(
                  series.size(), sims.CondensedDistances())
                  .value();

  const auto tree =
      cluster::AgglomerativeCluster(dist, cluster::Linkage::kAverage).value();

  io::PrintSection(std::cout, "Figure 3: dendrogram merges (average linkage)");
  io::TextTable merges({"step", "distance", "cluster_size"});
  for (size_t m = 0; m < tree.merges.size(); ++m) {
    merges.AddRow({bench::FmtInt(m + 1),
                   bench::Fmt(tree.merges[m].distance),
                   bench::FmtInt(tree.merges[m].size)});
  }
  merges.Print(std::cout);

  io::PrintSection(std::cout, "Figure 3: clusters at distance threshold 0.4");
  const auto labels = tree.CutAt(0.4);
  size_t n_clusters = tree.CountClustersAt(0.4);
  io::TextTable clusters({"cluster", "gateways"});
  for (size_t c = 0; c < n_clusters; ++c) {
    std::vector<std::string> members;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == c) {
        members.push_back(StrFormat("gw%d", ids[i]));
      }
    }
    clusters.AddRow({bench::FmtInt(c), StrJoin(members, " ")});
  }
  clusters.Print(std::cout);
  std::cout << "  " << n_clusters << " clusters among " << series.size()
            << " gateways at correlation >= 0.6 (paper's Figure 3 finds two "
               "similarity clusters among its example series)\n";

  // Is the paper's 0.4 cut structurally justified? Compare against the
  // silhouette-optimal cut.
  const auto best = cluster::BestCutBySilhouette(dist, tree);
  if (best.ok()) {
    std::cout << "  silhouette-optimal cut: distance "
              << bench::Fmt(best->best_threshold, 2) << " -> "
              << best->best_clusters << " clusters (score "
              << bench::Fmt(best->best_score, 2)
              << "); the paper's fixed 0.4 cut corresponds to the "
                 "correlation-strength boundary instead\n";
  }

  // Threshold sensitivity: how cluster count falls as the cut loosens.
  io::PrintSection(std::cout, "Cut-threshold sensitivity");
  io::TextTable sweep({"distance_cut", "min_correlation", "clusters"});
  for (double cut : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    sweep.AddRow({bench::Fmt(cut, 1), bench::Fmt(1.0 - cut, 1),
                  bench::FmtInt(tree.CountClustersAt(cut))});
  }
  sweep.Print(std::cout);
}

}  // namespace

int main() {
  Run();
  return 0;
}
