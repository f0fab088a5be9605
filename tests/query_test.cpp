// Unit tests for k-NN / range search (src/query).

#include <gtest/gtest.h>

#include <cmath>

#include "distance/lp.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/search.hpp"

namespace uts::query {
namespace {

ts::Dataset RandomDataset(std::size_t n, std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("q");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), int(i % 3)));
  }
  return d;
}

TEST(KNearestTest, FindsTrueNeighborsOnALine) {
  // Items at positions 0, 1, 2, ...: the neighbors of item 5 are 4 and 6.
  auto dist_to = [](std::size_t i) { return std::fabs(double(i) - 5.0); };
  const auto nn = KNearest(10, 5, 3, dist_to);
  ASSERT_EQ(nn.size(), 3u);
  EXPECT_EQ(nn[0].index, 4u);  // tie with 6 broken by index
  EXPECT_EQ(nn[1].index, 6u);
  EXPECT_EQ(nn[2].index, 3u);
  EXPECT_DOUBLE_EQ(nn[0].distance, 1.0);
}

TEST(KNearestTest, ExcludesQueryItself) {
  auto dist_to = [](std::size_t) { return 1.0; };
  const auto nn = KNearest(5, 2, 10, dist_to);
  EXPECT_EQ(nn.size(), 4u);
  for (const auto& n : nn) EXPECT_NE(n.index, 2u);
}

TEST(KNearestTest, NoExclusionWhenOutOfRange) {
  auto dist_to = [](std::size_t i) { return double(i); };
  const auto nn = KNearest(4, 99, 2, dist_to);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].index, 0u);
}

TEST(KNearestTest, SortedAscendingDeterministicTies) {
  auto dist_to = [](std::size_t i) { return double(i % 2); };
  const auto nn = KNearest(8, 8, 8, dist_to);
  ASSERT_EQ(nn.size(), 8u);
  // Evens (distance 0) by index first, then odds.
  EXPECT_EQ(nn[0].index, 0u);
  EXPECT_EQ(nn[1].index, 2u);
  EXPECT_EQ(nn[2].index, 4u);
  EXPECT_EQ(nn[3].index, 6u);
  EXPECT_EQ(nn[4].index, 1u);
}

TEST(KNearestEuclideanTest, MatchesBruteForce) {
  const ts::Dataset d = RandomDataset(40, 16, 3);
  const auto engine = DistanceMatrixEngine::Create(d).ValueOrDie();
  for (std::size_t qi : {0u, 7u, 39u}) {
    const auto nn = engine.KNearestEuclidean(qi, 5).ValueOrDie();
    ASSERT_EQ(nn.size(), 5u);
    // Brute force verify: no non-returned item is closer than the 5th.
    const double worst = nn.back().distance;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (i == qi) continue;
      const double dist = distance::Euclidean(d[qi].values(), d[i].values());
      const bool in_result =
          std::any_of(nn.begin(), nn.end(),
                      [i](const Neighbor& n) { return n.index == i; });
      if (!in_result) {
        EXPECT_GE(dist, worst - 1e-12);
      }
    }
    // Distances sorted ascending.
    for (std::size_t k = 1; k < nn.size(); ++k) {
      EXPECT_GE(nn[k].distance, nn[k - 1].distance);
    }
  }
}

TEST(RangeSearchTest, MatchesPredicate) {
  auto dist_to = [](std::size_t i) { return double(i); };
  const auto matches = RangeSearch(10, 10, 3.5, dist_to);
  ASSERT_EQ(matches.size(), 4u);  // 0, 1, 2, 3
  EXPECT_EQ(matches[3], 3u);
}

TEST(RangeSearchTest, InclusiveThreshold) {
  auto dist_to = [](std::size_t i) { return double(i); };
  const auto matches = RangeSearch(10, 10, 3.0, dist_to);
  EXPECT_EQ(matches.size(), 4u);  // <= is inclusive (Eq. 1)
}

TEST(RangeSearchEuclideanTest, ConsistentWithKnn) {
  const ts::Dataset d = RandomDataset(30, 12, 5);
  const std::size_t qi = 4;
  const auto engine = DistanceMatrixEngine::Create(d).ValueOrDie();
  const auto nn = engine.KNearestEuclidean(qi, 10).ValueOrDie();
  const double eps = nn.back().distance;
  const auto range = engine.RangeSearchEuclidean(qi, eps).ValueOrDie();
  // The range query at the 10th-NN distance returns at least 10 items
  // (ties can add more), and every k-NN member is inside.
  EXPECT_GE(range.size(), 10u);
  for (const auto& n : nn) {
    EXPECT_TRUE(std::find(range.begin(), range.end(), n.index) != range.end());
  }
}

TEST(RangeSearchEuclideanTest, ZeroEpsilonFindsOnlyDuplicates) {
  ts::Dataset d("dup");
  d.Add(ts::TimeSeries({1.0, 2.0}));
  d.Add(ts::TimeSeries({1.0, 2.0}));
  d.Add(ts::TimeSeries({9.0, 9.0}));
  const auto matches =
      DistanceMatrixEngine::Create(d).ValueOrDie().RangeSearchEuclidean(0, 0.0)
          .ValueOrDie();
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], 1u);
}

// ------------------------------------------------------ probabilistic RQ

TEST(ProbabilisticRangeSearchTest, ThresholdIsInclusive) {
  // Pr(i) = i / 10; PRQ at tau = 0.5 keeps items 5..9 (Eq. 2 uses >=).
  auto prob = [](std::size_t i) { return double(i) / 10.0; };
  const auto matches = ProbabilisticRangeSearch(10, 10, 0.5, prob);
  ASSERT_EQ(matches.size(), 5u);
  EXPECT_EQ(matches.front(), 5u);
  EXPECT_EQ(matches.back(), 9u);
}

TEST(ProbabilisticRangeSearchTest, ExcludesQuery) {
  auto prob = [](std::size_t) { return 1.0; };
  const auto matches = ProbabilisticRangeSearch(5, 2, 0.1, prob);
  EXPECT_EQ(matches.size(), 4u);
  for (std::size_t i : matches) EXPECT_NE(i, 2u);
}

TEST(ProbabilisticRangeSearchTest, TauOneKeepsOnlyCertainMatches) {
  auto prob = [](std::size_t i) { return i == 3 ? 1.0 : 0.999; };
  const auto matches = ProbabilisticRangeSearch(6, 6, 1.0, prob);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], 3u);
}

// ------------------------------------------------------------------ motifs

TEST(TopKMotifsTest, FindsClosestPairs) {
  // Items on a line at 0, 1, 3, 10: closest pair (0,1) d=1, then (1,2) d=2.
  const double pos[] = {0.0, 1.0, 3.0, 10.0};
  auto dist = [&](std::size_t a, std::size_t b) {
    return std::fabs(pos[a] - pos[b]);
  };
  const auto motifs = TopKMotifs(4, 2, dist);
  ASSERT_EQ(motifs.size(), 2u);
  EXPECT_EQ(motifs[0].a, 0u);
  EXPECT_EQ(motifs[0].b, 1u);
  EXPECT_DOUBLE_EQ(motifs[0].distance, 1.0);
  EXPECT_EQ(motifs[1].a, 1u);
  EXPECT_EQ(motifs[1].b, 2u);
}

TEST(TopKMotifsTest, KLargerThanPairCountReturnsAll) {
  auto dist = [](std::size_t a, std::size_t b) { return double(a + b); };
  const auto motifs = TopKMotifs(3, 100, dist);
  EXPECT_EQ(motifs.size(), 3u);  // C(3,2)
}

TEST(TopKMotifsTest, DeterministicTieBreaking) {
  auto dist = [](std::size_t, std::size_t) { return 1.0; };
  const auto motifs = TopKMotifs(4, 3, dist);
  ASSERT_EQ(motifs.size(), 3u);
  EXPECT_EQ(motifs[0].a, 0u);
  EXPECT_EQ(motifs[0].b, 1u);
  EXPECT_EQ(motifs[1].b, 2u);
  EXPECT_EQ(motifs[2].b, 3u);
}

TEST(TopKMotifsTest, EuclideanVariantFindsPlantedMotif) {
  ts::Dataset d = RandomDataset(20, 24, 77);
  // Plant a near-duplicate of series 4 at index 19.
  auto clone = d[4];
  clone.mutable_values()[0] += 0.01;
  d[19] = clone;
  const auto motifs = DistanceMatrixEngine::Create(d)
                          .ValueOrDie()
                          .TopKMotifsEuclidean(1)
                          .ValueOrDie();
  ASSERT_EQ(motifs.size(), 1u);
  EXPECT_EQ(motifs[0].a, 4u);
  EXPECT_EQ(motifs[0].b, 19u);
  EXPECT_NEAR(motifs[0].distance, 0.01, 1e-9);
}

}  // namespace
}  // namespace uts::query
