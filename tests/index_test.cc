#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "crypto/chacha20.h"
#include "index/al.h"
#include "index/binning.h"
#include "index/index.h"
#include "index/layout.h"
#include "index/matching.h"
#include "index/overflow.h"

namespace fresque {
namespace index {
namespace {

DomainBinning MakeBinning(double lo, double hi, double width) {
  auto b = DomainBinning::Create(lo, hi, width);
  EXPECT_TRUE(b.ok());
  return std::move(b).ValueOrDie();
}

// ---------------------------------------------------------------- Binning

TEST(BinningTest, PaperOffsetFormula) {
  // Ov = min( floor((v - dmin)/Ib), num_bins - 1 )
  auto b = MakeBinning(0, 3421 * 1024.0, 1024.0);
  EXPECT_EQ(b.num_bins(), 3421u);
  EXPECT_EQ(b.LeafOffset(0), 0u);
  EXPECT_EQ(b.LeafOffset(1023), 0u);
  EXPECT_EQ(b.LeafOffset(1024), 1u);
  EXPECT_EQ(b.LeafOffset(3421 * 1024.0 - 1), 3420u);
  // Clamp at the top (the min() in the paper's formula).
  EXPECT_EQ(b.LeafOffset(3421 * 1024.0), 3420u);
  EXPECT_EQ(b.LeafOffset(1e12), 3420u);
}

TEST(BinningTest, CheckedOffsetRejectsOutOfDomain) {
  auto b = MakeBinning(10, 20, 2);
  EXPECT_TRUE(b.LeafOffsetChecked(10).ok());
  EXPECT_TRUE(b.LeafOffsetChecked(19.9).ok());
  EXPECT_FALSE(b.LeafOffsetChecked(9.9).ok());
  EXPECT_FALSE(b.LeafOffsetChecked(20).ok());
}

TEST(BinningTest, LeafIntervalsTileTheDomain) {
  auto b = MakeBinning(-5, 5, 0.5);
  for (size_t i = 0; i < b.num_bins(); ++i) {
    EXPECT_DOUBLE_EQ(b.LeafHigh(i), b.LeafLow(i + 1));
    EXPECT_EQ(b.LeafOffset(b.LeafLow(i)), i);
  }
}

TEST(BinningTest, RejectsDegenerateDomains) {
  EXPECT_FALSE(DomainBinning::Create(0, 0, 1).ok());
  EXPECT_FALSE(DomainBinning::Create(5, 1, 1).ok());
  EXPECT_FALSE(DomainBinning::Create(0, 10, 0).ok());
  EXPECT_FALSE(DomainBinning::Create(0, 10, -1).ok());
}

// ----------------------------------------------------------------- Layout

TEST(LayoutTest, LevelSizesShrinkByFanout) {
  auto layout = IndexLayout::Create(3421, 16);
  ASSERT_TRUE(layout.ok());
  // 3421 -> 214 -> 14 -> 1
  EXPECT_EQ(layout->num_levels(), 4u);
  EXPECT_EQ(layout->level_size(0), 3421u);
  EXPECT_EQ(layout->level_size(1), 214u);
  EXPECT_EQ(layout->level_size(2), 14u);
  EXPECT_EQ(layout->level_size(3), 1u);
  EXPECT_EQ(layout->total_nodes(), 3421u + 214 + 14 + 1);
}

TEST(LayoutTest, SingleLeafIsJustRoot) {
  auto layout = IndexLayout::Create(1, 16);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->num_levels(), 1u);
}

TEST(LayoutTest, ChildRangesPartitionLevels) {
  auto layout = IndexLayout::Create(100, 4);
  ASSERT_TRUE(layout.ok());
  for (size_t l = 1; l < layout->num_levels(); ++l) {
    size_t covered = 0;
    for (size_t i = 0; i < layout->level_size(l); ++i) {
      size_t begin = layout->ChildBegin(l, i);
      size_t end = layout->ChildEnd(l, i);
      EXPECT_EQ(begin, covered);
      EXPECT_GT(end, begin);
      covered = end;
    }
    EXPECT_EQ(covered, layout->level_size(l - 1));
  }
}

TEST(LayoutTest, LeafSpansCoverAllLeaves) {
  auto layout = IndexLayout::Create(50, 3);
  ASSERT_TRUE(layout.ok());
  size_t root = layout->num_levels() - 1;
  size_t b, e;
  layout->LeafSpan(root, 0, &b, &e);
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(e, 50u);
  // Level-1 spans tile the leaves.
  if (layout->num_levels() > 1) {
    size_t covered = 0;
    for (size_t i = 0; i < layout->level_size(1); ++i) {
      layout->LeafSpan(1, i, &b, &e);
      EXPECT_EQ(b, covered);
      covered = e;
    }
    EXPECT_EQ(covered, 50u);
  }
}

TEST(LayoutTest, RejectsBadParameters) {
  EXPECT_FALSE(IndexLayout::Create(0, 16).ok());
  EXPECT_FALSE(IndexLayout::Create(10, 1).ok());
}

// ---------------------------------------------------------- HistogramIndex

TEST(HistogramIndexTest, AggregateUpSumsChildren) {
  auto layout = IndexLayout::Create(8, 2);
  auto binning = MakeBinning(0, 8, 1);
  std::vector<int64_t> counts = {1, 2, 3, 4, 5, 6, 7, 8};
  auto idx = HistogramIndex::FromLeafCounts(std::move(layout).ValueOrDie(),
                                            binning, counts);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->root_count(), 36);
  EXPECT_EQ(idx->count(1, 0), 3);   // 1+2
  EXPECT_EQ(idx->count(1, 3), 15);  // 7+8
  EXPECT_EQ(idx->count(2, 0), 10);  // 1..4
}

TEST(HistogramIndexTest, AddAlongPathMatchesRebuild) {
  auto layout = IndexLayout::Create(100, 16);
  auto binning = MakeBinning(0, 100, 1);
  HistogramIndex incremental(std::move(layout).ValueOrDie(), binning);
  std::vector<int64_t> counts(100, 0);
  Xoshiro256 rng(8);
  for (int i = 0; i < 5000; ++i) {
    size_t leaf = rng.NextBounded(100);
    incremental.AddAlongPath(leaf, 1);
    ++counts[leaf];
  }
  auto rebuilt = HistogramIndex::FromLeafCounts(
      incremental.layout(), incremental.binning(), counts);
  ASSERT_TRUE(rebuilt.ok());
  for (size_t l = 0; l < incremental.layout().num_levels(); ++l) {
    for (size_t i = 0; i < incremental.layout().level_size(l); ++i) {
      EXPECT_EQ(incremental.count(l, i), rebuilt->count(l, i))
          << "level " << l << " node " << i;
    }
  }
}

TEST(HistogramIndexTest, WalkToLeafMatchesArithmeticOffset) {
  auto binning = MakeBinning(100, 5000, 7);
  auto layout = IndexLayout::Create(binning.num_bins(), 16);
  HistogramIndex idx(std::move(layout).ValueOrDie(), binning);
  Xoshiro256 rng(3);
  for (int i = 0; i < 5000; ++i) {
    double v = 100 + rng.NextDouble() * (5000 - 100);
    EXPECT_EQ(idx.WalkToLeaf(v), binning.LeafOffset(v)) << "v=" << v;
  }
  // Edges.
  EXPECT_EQ(idx.WalkToLeaf(100), binning.LeafOffset(100));
  EXPECT_EQ(idx.WalkToLeaf(4999.999), binning.LeafOffset(4999.999));
}

// Property: traversal returns exactly the non-prunable leaves a brute
// force over the noisy tree would return.
TEST(HistogramIndexTest, PropertyTraverseMatchesBruteForce) {
  Xoshiro256 rng(12);
  crypto::SecureRandom crng(12);
  for (int trial = 0; trial < 30; ++trial) {
    size_t bins = 20 + rng.NextBounded(200);
    auto binning = MakeBinning(0, static_cast<double>(bins), 1);
    auto layout = IndexLayout::Create(bins, 2 + rng.NextBounded(15));
    std::vector<int64_t> counts(bins);
    for (auto& c : counts) {
      c = static_cast<int64_t>(rng.NextBounded(20)) - 5;  // some negative
    }
    auto idx = HistogramIndex::FromLeafCounts(std::move(layout).ValueOrDie(),
                                              binning, counts);
    ASSERT_TRUE(idx.ok());
    // Perturb internal nodes too so pruning can happen mid-tree.
    IndexPerturber perturber(0.5, &crng);
    perturber.Perturb(&*idx);

    double lo = rng.NextDouble() * bins;
    double hi = lo + rng.NextDouble() * (bins - lo);
    RangeQuery q{lo, hi};
    auto got = idx->Traverse(q);

    // Brute force: leaf reachable iff every ancestor (and itself) has a
    // non-negative count and the leaf interval intersects [lo, hi].
    std::vector<size_t> want;
    const auto& lay = idx->layout();
    for (size_t leaf = 0; leaf < bins; ++leaf) {
      double llo = binning.LeafLow(leaf);
      double lhi = binning.LeafHigh(leaf);
      if (lhi <= q.lo || llo > q.hi) continue;
      bool reachable = true;
      size_t node = leaf;
      for (size_t l = 0; l < lay.num_levels(); ++l) {
        if (idx->count(l, node) < 0) {
          reachable = false;
          break;
        }
        node /= lay.fanout();
      }
      if (reachable) want.push_back(leaf);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(HistogramIndexTest, NoisyRangeCountMatchesLeafSumOnCleanIndex) {
  // On an unperturbed index the greedy cover must equal the exact
  // bin-granular count for every query, since internal nodes are exact
  // sums of their children.
  auto binning = MakeBinning(0, 300, 1);
  auto layout = IndexLayout::Create(300, 4);
  std::vector<int64_t> counts(300);
  Xoshiro256 rng(21);
  for (auto& c : counts) c = static_cast<int64_t>(rng.NextBounded(10));
  auto idx = HistogramIndex::FromLeafCounts(std::move(layout).ValueOrDie(),
                                            binning, counts);
  ASSERT_TRUE(idx.ok());
  for (int trial = 0; trial < 200; ++trial) {
    double lo = rng.NextDouble() * 300;
    double hi = lo + rng.NextDouble() * (300 - lo);
    int64_t got = idx->NoisyRangeCount({lo, hi});
    int64_t want = 0;
    size_t first = binning.LeafOffset(lo);
    size_t last = binning.LeafOffset(hi);
    for (size_t leaf = first; leaf <= last; ++leaf) want += counts[leaf];
    EXPECT_EQ(got, want) << "[" << lo << ", " << hi << "]";
  }
  // Degenerate / out-of-domain queries.
  EXPECT_EQ(idx->NoisyRangeCount({5, 4}), 0);
  EXPECT_EQ(idx->NoisyRangeCount({-100, -50}), 0);
  EXPECT_EQ(idx->NoisyRangeCount({400, 500}), 0);
  EXPECT_EQ(idx->NoisyRangeCount({0, 299.5}), idx->root_count());
}

TEST(HistogramIndexTest, HierarchicalCountBeatsLeafSumUnderNoise) {
  // The accuracy argument: covering a wide range with O(log n) internal
  // nodes accumulates far less Laplace noise than summing every leaf.
  auto binning = MakeBinning(0, 1024, 1);
  crypto::SecureRandom crng(31);
  double err_hier = 0, err_leaf = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    auto layout = IndexLayout::Create(1024, 16);
    std::vector<int64_t> counts(1024, 10);
    auto idx = HistogramIndex::FromLeafCounts(
        std::move(layout).ValueOrDie(), binning, counts);
    IndexPerturber perturber(1.0, &crng);
    perturber.Perturb(&*idx);
    RangeQuery q{0, 1023.5};  // whole domain
    const int64_t truth = 1024 * 10;
    err_hier += std::abs(
        static_cast<double>(idx->NoisyRangeCount(q) - truth));
    int64_t leaf_sum = 0;
    for (size_t leaf = 0; leaf < 1024; ++leaf) {
      leaf_sum += idx->leaf_count(leaf);
    }
    err_leaf += std::abs(static_cast<double>(leaf_sum - truth));
  }
  // The hierarchical cover is the root alone here: one noise term vs
  // 1024 -- expect at least a few-fold accuracy win on average.
  EXPECT_LT(err_hier / kTrials, err_leaf / kTrials / 3);
}

TEST(HistogramIndexTest, SerializeRoundTrip) {
  auto binning = MakeBinning(0, 626 * 3600.0, 3600);
  crypto::SecureRandom rng(5);
  auto tmpl = IndexTemplate::Create(binning, 16, 1.0, &rng);
  ASSERT_TRUE(tmpl.ok());
  Bytes bytes = tmpl->noise_index().Serialize();
  auto back = HistogramIndex::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  for (size_t l = 0; l < back->layout().num_levels(); ++l) {
    for (size_t i = 0; i < back->layout().level_size(l); ++i) {
      EXPECT_EQ(back->count(l, i), tmpl->noise_index().count(l, i));
    }
  }
}

TEST(HistogramIndexTest, DeserializeRejectsCorruption) {
  auto binning = MakeBinning(0, 64, 1);
  auto layout = IndexLayout::Create(64, 4);
  HistogramIndex idx(std::move(layout).ValueOrDie(), binning);
  Bytes good = idx.Serialize();
  // Truncation.
  Bytes truncated(good.begin(), good.begin() + good.size() / 2);
  EXPECT_FALSE(HistogramIndex::Deserialize(truncated).ok());
  // Trailing garbage.
  Bytes extended = good;
  extended.push_back(0);
  EXPECT_FALSE(HistogramIndex::Deserialize(extended).ok());
  // Empty.
  EXPECT_FALSE(HistogramIndex::Deserialize({}).ok());
}

TEST(HistogramIndexTest, PlusRequiresSameShape) {
  auto binning_a = MakeBinning(0, 64, 1);
  auto binning_b = MakeBinning(0, 32, 1);
  HistogramIndex a(std::move(IndexLayout::Create(64, 4)).ValueOrDie(),
                   binning_a);
  HistogramIndex b(std::move(IndexLayout::Create(32, 4)).ValueOrDie(),
                   binning_b);
  EXPECT_FALSE(a.Plus(b).ok());
}

// ------------------------------------------------------------ Perturbation

TEST(PerturberTest, LevelScaleSplitsBudget) {
  EXPECT_DOUBLE_EQ(IndexPerturber::LevelScale(1.0, 4), 4.0);
  EXPECT_DOUBLE_EQ(IndexPerturber::LevelScale(2.0, 4), 2.0);
  EXPECT_DOUBLE_EQ(IndexPerturber::LevelScale(0.5, 1), 2.0);
}

TEST(PerturberTest, NoiseShapeMatchesLayoutAndIsNontrivial) {
  crypto::SecureRandom rng(9);
  IndexPerturber perturber(1.0, &rng);
  auto layout = IndexLayout::Create(1000, 16);
  auto noise = perturber.SampleNoise(*layout);
  ASSERT_EQ(noise.size(), layout->num_levels());
  int64_t nonzero = 0;
  for (size_t l = 0; l < noise.size(); ++l) {
    EXPECT_EQ(noise[l].size(), layout->level_size(l));
    for (int64_t v : noise[l]) nonzero += (v != 0);
  }
  EXPECT_GT(nonzero, 100);  // Lap(4) is rarely 0 across 1200+ nodes
}

TEST(TemplateTest, MergeWithCountsEqualsDirectBuildPlusNoise) {
  auto binning = MakeBinning(0, 200, 1);
  crypto::SecureRandom rng(10);
  auto tmpl = IndexTemplate::Create(binning, 8, 1.0, &rng);
  ASSERT_TRUE(tmpl.ok());
  std::vector<int64_t> al(200);
  Xoshiro256 xr(2);
  for (auto& v : al) v = static_cast<int64_t>(xr.NextBounded(50));
  auto merged = tmpl->MergeWithCounts(al);
  ASSERT_TRUE(merged.ok());
  // Every leaf: noise + AL; every internal: sum-of-children identity.
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(merged->leaf_count(i), tmpl->leaf_noise()[i] + al[i]);
  }
  const auto& lay = merged->layout();
  for (size_t l = 1; l < lay.num_levels(); ++l) {
    for (size_t i = 0; i < lay.level_size(l); ++i) {
      int64_t kids = 0;
      for (size_t c = lay.ChildBegin(l, i); c < lay.ChildEnd(l, i); ++c) {
        kids += merged->count(l - 1, c);
      }
      // Internal node = own noise + children *count* sums; since noise is
      // per-node, the identity holds for the count component only:
      // merged(l,i) - noise(l,i) == sum(merged(l-1,c) - noise(l-1,c)).
      int64_t own = merged->count(l, i) - tmpl->noise_index().count(l, i);
      int64_t kid_counts = kids;
      for (size_t c = lay.ChildBegin(l, i); c < lay.ChildEnd(l, i); ++c) {
        kid_counts -= tmpl->noise_index().count(l - 1, c);
      }
      EXPECT_EQ(own, kid_counts);
    }
  }
}

TEST(TemplateTest, MergeRejectsWrongArity) {
  auto binning = MakeBinning(0, 100, 1);
  crypto::SecureRandom rng(10);
  auto tmpl = IndexTemplate::Create(binning, 8, 1.0, &rng);
  EXPECT_FALSE(tmpl->MergeWithCounts(std::vector<int64_t>(99, 0)).ok());
}

TEST(TemplateTest, TotalPositiveNoiseCountsOnlyPositive) {
  auto binning = MakeBinning(0, 500, 1);
  crypto::SecureRandom rng(11);
  auto tmpl = IndexTemplate::Create(binning, 16, 1.0, &rng);
  int64_t expected = 0;
  for (int64_t n : tmpl->leaf_noise()) {
    if (n > 0) expected += n;
  }
  EXPECT_EQ(tmpl->TotalPositiveNoise(), expected);
  EXPECT_GT(expected, 0);
}

// -------------------------------------------------------------- LeafArrays

TEST(LeafArraysTest, ChecksNegativeNoiseExactly) {
  // ALN starts at {-2, 0, 3}: leaf 0 removes exactly two records.
  LeafArrays al({-2, 0, 3});
  EXPECT_EQ(al.Admit(0), LeafArrays::Decision::kRemove);
  EXPECT_EQ(al.Admit(0), LeafArrays::Decision::kRemove);
  EXPECT_EQ(al.Admit(0), LeafArrays::Decision::kForward);
  EXPECT_EQ(al.Admit(1), LeafArrays::Decision::kForward);
  EXPECT_EQ(al.Admit(2), LeafArrays::Decision::kForward);
  // AL counts everything, including removed records.
  EXPECT_EQ(al.al(0), 3);
  EXPECT_EQ(al.al(1), 1);
  EXPECT_EQ(al.al(2), 1);
  EXPECT_EQ(al.TotalReal(), 5);
}

TEST(LeafArraysTest, PublishedCountInvariant) {
  // Invariant: for any arrival pattern, AL[i] + noise[i] equals
  // (records attached at cloud) + (records removed) + noise — i.e. the
  // published count equals arrivals + noise.
  Xoshiro256 rng(44);
  std::vector<int64_t> noise(50);
  for (auto& n : noise) n = static_cast<int64_t>(rng.NextBounded(9)) - 4;
  LeafArrays al(noise);
  std::vector<int64_t> arrivals(50, 0), removed(50, 0);
  for (int i = 0; i < 10000; ++i) {
    size_t leaf = rng.NextBounded(50);
    ++arrivals[leaf];
    if (al.Admit(leaf) == LeafArrays::Decision::kRemove) ++removed[leaf];
  }
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(al.al(i), arrivals[i]);
    int64_t published = al.al(i) + noise[i];
    int64_t attached = arrivals[i] - removed[i];
    // Attached records + positive-noise dummies == published when noise
    // fully satisfied; otherwise published < 0 and leaf is prunable.
    if (noise[i] >= 0) {
      EXPECT_EQ(published, attached + noise[i]);
    } else {
      EXPECT_EQ(removed[i],
                std::min<int64_t>(arrivals[i], -noise[i]));
    }
  }
}

// ---------------------------------------------------------- OverflowArrays

TEST(OverflowTest, InsertThenPadFillsEverySlot) {
  crypto::SecureRandom rng(3);
  OverflowArrays ovf(4, 3);
  EXPECT_TRUE(ovf.Insert(1, Bytes{1, 2, 3}, &rng).ok());
  EXPECT_TRUE(ovf.Insert(1, Bytes{4, 5}, &rng).ok());
  EXPECT_EQ(ovf.used(1), 2u);
  int dummy_count = 0;
  ASSERT_TRUE(ovf
                  .PadWithDummies([&] {
                    ++dummy_count;
                    return Bytes{0xFF};
                  })
                  .ok());
  EXPECT_EQ(dummy_count, 4 * 3 - 2);
  for (size_t leaf = 0; leaf < 4; ++leaf) {
    ovf.ForEachSlot(leaf, [](std::span<const uint8_t> slot) {
      EXPECT_FALSE(slot.empty());
    });
  }
}

TEST(OverflowTest, FullLeafRejectsInsert) {
  crypto::SecureRandom rng(3);
  OverflowArrays ovf(2, 2);
  EXPECT_TRUE(ovf.Insert(0, Bytes{1}, &rng).ok());
  EXPECT_TRUE(ovf.Insert(0, Bytes{2}, &rng).ok());
  EXPECT_TRUE(ovf.Insert(0, Bytes{3}, &rng).IsResourceExhausted());
  EXPECT_FALSE(ovf.Insert(9, Bytes{1}, &rng).ok());  // out of range
}

TEST(OverflowTest, SerializeRoundTrip) {
  crypto::SecureRandom rng(3);
  OverflowArrays ovf(3, 2);
  (void)ovf.Insert(0, Bytes{9, 9}, &rng);
  ASSERT_TRUE(ovf.PadWithDummies([&] { return rng.RandomBytes(8); }).ok());
  Bytes bytes = ovf.Serialize();
  EXPECT_EQ(bytes.size(), ovf.SerializedSize());
  auto back = OverflowArrays::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->decoded());
  EXPECT_EQ(back->num_leaves(), 3u);
  EXPECT_EQ(back->slots_per_leaf(), 2u);
  EXPECT_EQ(back->PayloadBytes(), ovf.PayloadBytes());
  EXPECT_EQ(back->Serialize(), bytes);
  auto slots_of = [](const OverflowArrays& a, size_t leaf) {
    std::vector<Bytes> out;
    a.ForEachSlot(leaf, [&](std::span<const uint8_t> slot) {
      out.emplace_back(slot.begin(), slot.end());
    });
    return out;
  };
  for (size_t leaf = 0; leaf < 3; ++leaf) {
    EXPECT_EQ(slots_of(*back, leaf), slots_of(ovf, leaf));
  }
  // Corruption.
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(OverflowArrays::Deserialize(bytes).ok());
}

TEST(OverflowTest, InsertPositionIsRandomized) {
  // Insert one record into a wide array many times: it should land in
  // different slots (no positional leak).
  std::set<size_t> positions;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    crypto::SecureRandom rng(seed);
    OverflowArrays ovf(1, 16);
    (void)ovf.Insert(0, Bytes{7}, &rng);
    size_t s = 0;
    ovf.ForEachSlot(0, [&](std::span<const uint8_t> slot) {
      if (!slot.empty()) positions.insert(s);
      ++s;
    });
  }
  EXPECT_GT(positions.size(), 4u);
}

// ------------------------------------------------------------ MatchingTable

TEST(MatchingTableTest, AddLookupAndDuplicates) {
  MatchingTable t;
  EXPECT_TRUE(t.Add(100, 7).ok());
  EXPECT_TRUE(t.Add(200, 9).ok());
  EXPECT_EQ(*t.Lookup(100), 7u);
  EXPECT_EQ(*t.Lookup(200), 9u);
  EXPECT_FALSE(t.Lookup(300).ok());
  EXPECT_FALSE(t.Add(100, 1).ok());  // duplicate tag
  EXPECT_EQ(t.size(), 2u);
}

TEST(MatchingTableTest, SerializeRoundTrip) {
  MatchingTable t;
  Xoshiro256 rng(6);
  for (int i = 0; i < 1000; ++i) {
    (void)t.Add(rng.Next(), static_cast<uint32_t>(rng.NextBounded(500)));
  }
  Bytes bytes = t.Serialize();
  auto back = MatchingTable::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), t.size());
  for (const auto& [tag, leaf] : t.entries()) {
    EXPECT_EQ(*back->Lookup(tag), leaf);
  }
}

}  // namespace
}  // namespace index
}  // namespace fresque
