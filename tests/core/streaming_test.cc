#include "core/streaming.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/motif.h"
#include "core/similarity.h"

namespace homets::core {
namespace {

TEST(WindowAssemblerTest, EmitsCompletedWindows) {
  auto assembler = WindowAssembler::Make(60, 20, 0).value();
  // Feed minutes 0..59: nothing emitted yet.
  for (int64_t m = 0; m < 60; ++m) {
    const auto out = assembler.Ingest(1, m, 1.0).value();
    EXPECT_TRUE(out.empty()) << "minute " << m;
  }
  // Minute 60 closes the first window.
  const auto out = assembler.Ingest(1, 60, 1.0).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].start_minute(), 0);
  EXPECT_EQ(out[0].step_minutes(), 20);
  ASSERT_EQ(out[0].size(), 3u);
  EXPECT_DOUBLE_EQ(out[0][0], 20.0);  // 20 minutes × 1 byte
  EXPECT_DOUBLE_EQ(out[0][2], 20.0);
}

TEST(WindowAssemblerTest, GapsEmitWindowsWithMissingBins) {
  auto assembler = WindowAssembler::Make(60, 20, 0).value();
  ASSERT_TRUE(assembler.Ingest(1, 0, 5.0).ok());
  // Jump across two full windows.
  const auto out = assembler.Ingest(1, 130, 7.0).value();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0][0], 5.0);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(out[0][1]));
  // Second window entirely missing.
  EXPECT_TRUE(ts::TimeSeries::IsMissing(out[1][0]));
  EXPECT_TRUE(ts::TimeSeries::IsMissing(out[1][2]));
}

TEST(WindowAssemblerTest, AnchorAlignsWindows) {
  auto assembler = WindowAssembler::Make(60, 30, 15).value();
  const auto none = assembler.Ingest(0, 20, 1.0).value();
  EXPECT_TRUE(none.empty());
  const auto out = assembler.Ingest(0, 80, 1.0).value();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].start_minute(), 15);
}

TEST(WindowAssemblerTest, PerGatewayIsolation) {
  auto assembler = WindowAssembler::Make(60, 60, 0).value();
  ASSERT_TRUE(assembler.Ingest(1, 0, 1.0).ok());
  ASSERT_TRUE(assembler.Ingest(2, 0, 2.0).ok());
  const auto out1 = assembler.Ingest(1, 60, 0.0).value();
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_DOUBLE_EQ(out1[0][0], 1.0);
  const auto out2 = assembler.Ingest(2, 60, 0.0).value();
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_DOUBLE_EQ(out2[0][0], 2.0);
}

TEST(WindowAssemblerTest, RejectsLateMinutes) {
  auto assembler = WindowAssembler::Make(60, 20, 0).value();
  ASSERT_TRUE(assembler.Ingest(1, 70, 1.0).ok());
  EXPECT_FALSE(assembler.Ingest(1, 30, 1.0).ok());
}

TEST(WindowAssemblerTest, FlushReturnsPartials) {
  auto assembler = WindowAssembler::Make(60, 20, 0).value();
  ASSERT_TRUE(assembler.Ingest(7, 10, 3.0).ok());
  auto flushed = assembler.Flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].first, 7);
  EXPECT_DOUBLE_EQ(flushed[0].second[0], 3.0);
  // Second flush has nothing.
  EXPECT_TRUE(assembler.Flush().empty());
}

TEST(WindowAssemblerTest, InvalidConfigs) {
  EXPECT_FALSE(WindowAssembler::Make(0, 10, 0).ok());
  EXPECT_FALSE(WindowAssembler::Make(60, 0, 0).ok());
  EXPECT_FALSE(WindowAssembler::Make(60, 25, 0).ok());
}

// -- StreamingMotifMiner ----------------------------------------------------

ts::TimeSeries ShapedWindow(int family, int64_t start, Rng* rng) {
  std::vector<double> v(24);
  for (size_t i = 0; i < v.size(); ++i) {
    const double base =
        200.0 + 150.0 * std::sin(2.0 * M_PI *
                                     static_cast<double>((family + 1) * i) /
                                     24.0 +
                                 (family % 2 == 0 ? 0.0 : M_PI / 2.0));
    v[i] = base + 3.0 * rng->Normal();
  }
  return ts::TimeSeries(start, 60, std::move(v));
}

TEST(StreamingMotifMinerTest, GroupsStreamedFamilies) {
  Rng rng(1);
  StreamingMotifMiner miner(MotifOptions{}, 1000);
  std::vector<size_t> ids;
  for (int i = 0; i < 12; ++i) {
    const int family = i % 2;
    const auto id = miner.AddWindow(
        family, ShapedWindow(family, i * ts::kMinutesPerDay, &rng));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  const auto motifs = miner.CurrentMotifs();
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0].support(), 6u);
  EXPECT_EQ(motifs[1].support(), 6u);
  // Same family → same stable motif id.
  for (int i = 2; i < 12; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)], ids[static_cast<size_t>(i % 2)]);
  }
}

TEST(StreamingMotifMinerTest, MatchesBatchDiscoveryOnSameWindows) {
  Rng rng(2);
  std::vector<ts::TimeSeries> windows;
  for (int i = 0; i < 18; ++i) {
    windows.push_back(ShapedWindow(i % 3, i * ts::kMinutesPerDay, &rng));
  }
  StreamingMotifMiner miner(MotifOptions{}, 1000);
  for (size_t i = 0; i < windows.size(); ++i) {
    ASSERT_TRUE(miner.AddWindow(0, windows[i]).ok());
  }
  const auto streamed = miner.CurrentMotifs();
  const auto batch = MotifDiscovery().Discover(windows).value();
  ASSERT_EQ(streamed.size(), batch.size());
  for (size_t m = 0; m < streamed.size(); ++m) {
    EXPECT_EQ(streamed[m].support(), batch[m].support());
    EXPECT_EQ(streamed[m].members, batch[m].members);
  }
}

// A daily cosine at `phase_deg` plus light noise: two such windows
// correlate at about the cosine of their phase difference, so the phases
// fix which of Definition 5's thresholds (φ = 0.8, group and merge 0.6) a
// pair reaches.
ts::TimeSeries PhaseWindow(double phase_deg, int64_t day, Rng* rng) {
  std::vector<double> v(24);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 200.0 +
           150.0 * std::cos(2.0 * M_PI * static_cast<double>(i) / 24.0 -
                            phase_deg * M_PI / 180.0) +
           3.0 * rng->Normal();
  }
  return ts::TimeSeries(day * ts::kMinutesPerDay, 60, std::move(v));
}

double Cor(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  return CorrelationSimilarity(a.values(), b.values()).value;
}

TEST(StreamingMotifMinerTest, MergingAfterEveryArrivalCanDifferFromBatch) {
  // The stream merges after every arrival; batch discovery first places
  // every window and merges once at the end. So an early merge can change
  // which motif a later window joins. Here A–B reaches the merge threshold
  // but not φ, B–C reaches φ, and A–C misses the group threshold. The
  // stream merges {A} and {B} when B arrives, and C then fails the group
  // test against A and stays alone. In batch, A and B are still apart when
  // C arrives, so C joins B, and the final merge of {A} with {B, C} fails
  // on A–C. The same timing difference is why ext_streaming_motifs reports
  // different motif counts for batch and stream over the same windows.
  Rng rng(8);
  const std::vector<ts::TimeSeries> windows = {PhaseWindow(0, 0, &rng),
                                               PhaseWindow(40, 1, &rng),
                                               PhaseWindow(70, 2, &rng)};
  const double ab = Cor(windows[0], windows[1]);
  ASSERT_GE(ab, 0.6);
  ASSERT_LT(ab, 0.8);
  ASSERT_GE(Cor(windows[1], windows[2]), 0.8);
  ASSERT_LT(Cor(windows[0], windows[2]), 0.6);

  StreamingMotifMiner miner(MotifOptions{}, 1000);
  std::vector<size_t> ids;
  for (const auto& window : windows) ids.push_back(*miner.AddWindow(0, window));
  EXPECT_EQ(ids, (std::vector<size_t>{0, 1, 2}));
  const auto streamed = miner.CurrentMotifs();
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_EQ(streamed[0].members, (std::vector<size_t>{0, 1}));

  const auto batch = MotifDiscovery().Discover(windows).value();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].members, (std::vector<size_t>{1, 2}));
}

TEST(StreamingMotifMinerTest, EvictionAfterMergeKeepsTheOlderId) {
  // Families A (0°) and B (40°) merge; C (120°) stays apart. B's window
  // seeds motif 2, which merges into A's motif 0 at once; eviction then
  // trims the merged motif and finally drops it when its last member
  // leaves the horizon.
  Rng rng(9);
  StreamingMotifMiner miner(MotifOptions{}, 5);
  const double phases[] = {0, 0, 120, 120, 40, 0, 120, 120, 120, 120, 120};
  std::vector<size_t> ids;
  for (int i = 0; i < 11; ++i) {
    ids.push_back(*miner.AddWindow(0, PhaseWindow(phases[i], i, &rng)));
    if (i == 6) {
      // Retained: windows 2..6.
      EXPECT_EQ(miner.windows_retained(), 5u);
      const auto motifs = miner.CurrentMotifs();
      ASSERT_EQ(motifs.size(), 2u);
      EXPECT_EQ(motifs[0].members, (std::vector<size_t>{2, 3, 6}));
      EXPECT_EQ(motifs[1].members, (std::vector<size_t>{4, 5}));
    }
  }
  EXPECT_EQ(ids, (std::vector<size_t>{0, 0, 1, 1, 2, 0, 1, 1, 1, 1, 1}));
  EXPECT_EQ(miner.windows_retained(), 5u);
  EXPECT_EQ(miner.windows_seen(), 11u);
  const auto motifs = miner.CurrentMotifs();
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].members, (std::vector<size_t>{6, 7, 8, 9, 10}));
}

TEST(StreamingMotifMinerTest, EvictionUnblocksAMerge) {
  // D (−30°) and A (0°) form motif 0; B (40°) merges with A but not with D,
  // so motif 1 = {B} stays apart while D is retained. Once D is evicted the
  // next arrival's merge pass joins {A} and {B} under the older id 0, and a
  // later B window joins motif 0. E (160°) is unrelated filler.
  Rng rng(10);
  StreamingMotifMiner miner(MotifOptions{}, 4);
  const double phases[] = {-30, 0, 40, 160, 160, 160, 40, 40};
  std::vector<size_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(*miner.AddWindow(0, PhaseWindow(phases[i], i, &rng)));
  }
  EXPECT_EQ(ids, (std::vector<size_t>{0, 0, 1, 2, 2, 2, 0, 0}));
  EXPECT_EQ(miner.windows_retained(), 4u);
  const auto motifs = miner.CurrentMotifs();
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0].members, (std::vector<size_t>{4, 5}));
  EXPECT_EQ(motifs[1].members, (std::vector<size_t>{6, 7}));
}

TEST(StreamingMotifMinerTest, EvictionBoundsMemory) {
  Rng rng(3);
  StreamingMotifMiner miner(MotifOptions{}, 8);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        miner.AddWindow(0, ShapedWindow(0, i * ts::kMinutesPerDay, &rng)).ok());
  }
  EXPECT_EQ(miner.windows_retained(), 8u);
  EXPECT_EQ(miner.windows_seen(), 40u);
  const auto motifs = miner.CurrentMotifs();
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].support(), 8u);  // support counts retained members only
}

TEST(StreamingMotifMinerTest, NoiseWindowsFormNoRealMotifs) {
  // Independent noise windows: a support-2 pairing can arise by chance
  // (45 pairs at the 5% significance gate), but no recurring pattern of
  // support >= 3 may appear.
  Rng rng(4);
  StreamingMotifMiner miner(MotifOptions{}, 100);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> v(24);
    for (auto& x : v) x = rng.Uniform(0.0, 1000.0);
    ASSERT_TRUE(
        miner.AddWindow(0, ts::TimeSeries(i * ts::kMinutesPerDay, 60, v)).ok());
  }
  for (const auto& motif : miner.CurrentMotifs()) {
    EXPECT_LT(motif.support(), 3u);
  }
}

TEST(StreamingMotifMinerTest, LengthMismatchRejected) {
  Rng rng(5);
  StreamingMotifMiner miner(MotifOptions{}, 100);
  ASSERT_TRUE(miner.AddWindow(0, ShapedWindow(0, 0, &rng)).ok());
  ts::TimeSeries shorter(0, 60, std::vector<double>(12, 1.0));
  EXPECT_FALSE(miner.AddWindow(0, shorter).ok());
}

TEST(StreamingMotifMinerTest, ProvenanceTracksArrivals) {
  Rng rng(6);
  StreamingMotifMiner miner(MotifOptions{}, 100);
  ASSERT_TRUE(miner.AddWindow(42, ShapedWindow(0, 1234 * 1440, &rng)).ok());
  ASSERT_EQ(miner.provenance().size(), 1u);
  EXPECT_EQ(miner.provenance()[0].gateway_id, 42);
  EXPECT_EQ(miner.provenance()[0].start_minute, 1234 * 1440);
}

TEST(EndToEndStreamingTest, AssemblerFeedsMiner) {
  // Minute-level stream of a strict evening user: the pipeline must surface
  // one evening motif.
  Rng rng(7);
  auto assembler = WindowAssembler::Make(ts::kMinutesPerDay, 180, 0).value();
  StreamingMotifMiner miner(MotifOptions{}, 100);
  for (int64_t m = 0; m < 14 * ts::kMinutesPerDay; ++m) {
    const int hour = static_cast<int>(ts::MinuteOfDay(m) / 60);
    double value = 0.0;
    if (hour >= 19 && hour < 22) value = rng.LogNormal(std::log(4e5), 0.3);
    const auto completed = assembler.Ingest(3, m, value).value();
    for (const auto& window : completed) {
      ASSERT_TRUE(miner.AddWindow(3, window).ok());
    }
  }
  const auto motifs = miner.CurrentMotifs();
  ASSERT_FALSE(motifs.empty());
  EXPECT_GE(motifs[0].support(), 10u);
}

}  // namespace
}  // namespace homets::core
