// Unit tests for the right-side vertex orderings: every order is a valid
// permutation, realizes its defining key, and is deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "gen/generators.h"
#include "graph/ordering.h"
#include "graph/two_hop.h"

namespace mbe {
namespace {

bool IsPermutation(const std::vector<VertexId>& perm, size_t n) {
  if (perm.size() != n) return false;
  std::vector<uint8_t> seen(n, 0);
  for (VertexId v : perm) {
    if (v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

class AllOrdersTest : public ::testing::TestWithParam<VertexOrder> {};

TEST_P(AllOrdersTest, ProducesAPermutation) {
  for (uint64_t seed : {1u, 2u}) {
    BipartiteGraph g = gen::PowerLaw(80, 60, 400, 0.8, 0.8, seed);
    auto perm = MakeOrder(g, GetParam(), 7);
    EXPECT_TRUE(IsPermutation(perm, g.num_right()))
        << VertexOrderName(GetParam());
  }
}

TEST_P(AllOrdersTest, DeterministicForFixedSeed) {
  BipartiteGraph g = gen::PowerLaw(60, 50, 300, 0.8, 0.8, 3);
  EXPECT_EQ(MakeOrder(g, GetParam(), 9), MakeOrder(g, GetParam(), 9));
}

INSTANTIATE_TEST_SUITE_P(
    Orders, AllOrdersTest,
    ::testing::Values(VertexOrder::kNone, VertexOrder::kDegreeAsc,
                      VertexOrder::kDegreeDesc, VertexOrder::kTwoHopAsc,
                      VertexOrder::kUnilateralAsc, VertexOrder::kRandom));

TEST(OrderingTest, NoneIsIdentity) {
  BipartiteGraph g = gen::ErdosRenyi(10, 8, 0.3, 1);
  auto perm = MakeOrder(g, VertexOrder::kNone);
  std::vector<VertexId> identity(g.num_right());
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(perm, identity);
}

TEST(OrderingTest, DegreeAscendingRealizesItsKey) {
  BipartiteGraph g = gen::PowerLaw(80, 60, 500, 0.9, 0.9, 5);
  auto perm = MakeOrder(g, VertexOrder::kDegreeAsc);
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(g.RightDegree(perm[i - 1]), g.RightDegree(perm[i]));
  }
  // Relabeled graph has ascending degrees by id.
  BipartiteGraph r = ApplyOrder(g, VertexOrder::kDegreeAsc);
  for (VertexId v = 1; v < r.num_right(); ++v) {
    EXPECT_LE(r.RightDegree(v - 1), r.RightDegree(v));
  }
}

TEST(OrderingTest, DegreeDescendingRealizesItsKey) {
  BipartiteGraph g = gen::PowerLaw(80, 60, 500, 0.9, 0.9, 6);
  auto perm = MakeOrder(g, VertexOrder::kDegreeDesc);
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_GE(g.RightDegree(perm[i - 1]), g.RightDegree(perm[i]));
  }
}

TEST(OrderingTest, TwoHopAscendingRealizesItsKey) {
  BipartiteGraph g = gen::ErdosRenyi(40, 30, 0.1, 8);
  auto perm = MakeOrder(g, VertexOrder::kTwoHopAsc);
  TwoHopScratch scratch(g.num_right());
  std::vector<VertexId> n2;
  std::vector<size_t> sizes(g.num_right());
  for (VertexId v = 0; v < g.num_right(); ++v) {
    scratch.RightTwoHop(g, v, &n2);
    sizes[v] = n2.size();
  }
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(sizes[perm[i - 1]], sizes[perm[i]]);
  }
}

TEST(OrderingTest, RandomOrderVariesWithSeed) {
  BipartiteGraph g = gen::ErdosRenyi(30, 40, 0.2, 9);
  auto a = MakeOrder(g, VertexOrder::kRandom, 1);
  auto b = MakeOrder(g, VertexOrder::kRandom, 2);
  EXPECT_NE(a, b);
}

TEST(OrderingTest, UnilateralIsAPeelingOrder) {
  // The unilateral order peels minimum-remaining-two-hop-degree vertices;
  // structurally this means the first peeled vertex has globally minimal
  // two-hop degree.
  BipartiteGraph g = gen::PowerLaw(60, 40, 300, 0.8, 0.8, 10);
  auto perm = UnilateralOrder(g);
  ASSERT_TRUE(IsPermutation(perm, g.num_right()));
  TwoHopScratch scratch(g.num_right());
  std::vector<VertexId> n2;
  size_t min_two_hop = g.num_right();
  std::vector<size_t> sizes(g.num_right());
  for (VertexId v = 0; v < g.num_right(); ++v) {
    scratch.RightTwoHop(g, v, &n2);
    sizes[v] = n2.size();
    min_two_hop = std::min(min_two_hop, n2.size());
  }
  EXPECT_EQ(sizes[perm[0]], min_two_hop);
}

TEST(OrderingTest, ParseAndNameRoundTrip) {
  for (VertexOrder order :
       {VertexOrder::kNone, VertexOrder::kDegreeAsc, VertexOrder::kDegreeDesc,
        VertexOrder::kTwoHopAsc, VertexOrder::kUnilateralAsc,
        VertexOrder::kRandom}) {
    VertexOrder parsed = VertexOrder::kNone;
    ASSERT_TRUE(ParseVertexOrder(VertexOrderName(order), &parsed).ok());
    EXPECT_EQ(parsed, order);
  }
}

TEST(OrderingTest, UnknownOrderNameIsInvalidArgument) {
  VertexOrder order = VertexOrder::kTwoHopAsc;
  const util::Status status = ParseVertexOrder("bogus", &order);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unknown vertex order 'bogus'"),
            std::string::npos);
  EXPECT_EQ(order, VertexOrder::kTwoHopAsc);  // untouched on error
}

TEST(OrderingTest, ApplyOrderPreservesStructure) {
  BipartiteGraph g = gen::PowerLaw(50, 40, 250, 0.8, 0.8, 11);
  BipartiteGraph r = ApplyOrder(g, VertexOrder::kDegreeAsc);
  EXPECT_EQ(r.num_edges(), g.num_edges());
  EXPECT_EQ(r.num_left(), g.num_left());
  EXPECT_EQ(r.MaxRightDegree(), g.MaxRightDegree());
}

TEST(OrderingTest, EmptyGraphOrders) {
  BipartiteGraph g;
  for (VertexOrder order : {VertexOrder::kDegreeAsc, VertexOrder::kRandom}) {
    EXPECT_TRUE(MakeOrder(g, order).empty());
  }
}

}  // namespace
}  // namespace mbe
