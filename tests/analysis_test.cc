// Unit tests for the analytics sinks (shape, top-k, tee).

#include <gtest/gtest.h>

#include <algorithm>

#include "api/mbe.h"
#include "core/analysis.h"
#include "gen/generators.h"

namespace mbe {
namespace {

void EmitPair(ResultSink& sink, std::vector<VertexId> l,
              std::vector<VertexId> r) {
  sink.Emit(l, r);
}

TEST(ShapeSinkTest, AccumulatesShape) {
  ShapeSink sink;
  EmitPair(sink, {1, 2}, {3, 4});        // 4 edges -> bucket 2
  EmitPair(sink, {1}, {2});              // 1 edge  -> bucket 0
  EmitPair(sink, {1, 2, 3}, {4, 5, 6});  // 9 edges -> bucket 3
  ResultShape shape = sink.shape();
  EXPECT_EQ(shape.count, 3u);
  EXPECT_EQ(shape.edge_total, 14u);
  EXPECT_EQ(shape.max_left, 3u);
  EXPECT_EQ(shape.max_right, 3u);
  EXPECT_EQ(shape.max_edges, 9u);
  ASSERT_GE(shape.edge_histogram.size(), 4u);
  EXPECT_EQ(shape.edge_histogram[0], 1u);
  EXPECT_EQ(shape.edge_histogram[2], 1u);
  EXPECT_EQ(shape.edge_histogram[3], 1u);
}

TEST(TopKSinkTest, KeepsLargestK) {
  TopKSink sink(2);
  EmitPair(sink, {1}, {2});              // 1 edge
  EmitPair(sink, {1, 2, 3}, {4, 5});     // 6 edges
  EmitPair(sink, {1, 2}, {3, 4});        // 4 edges
  EmitPair(sink, {9}, {8});              // 1 edge
  const auto top = sink.Take();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].num_edges(), 6u);
  EXPECT_EQ(top[1].num_edges(), 4u);
}

TEST(TopKSinkTest, FewerThanKResults) {
  TopKSink sink(10);
  EmitPair(sink, {1}, {2});
  const auto top = sink.Take();
  ASSERT_EQ(top.size(), 1u);
}

TEST(TopKSinkTest, DeterministicUnderTies) {
  // Three 1-edge bicliques, k = 2: the two lexicographically smallest win
  // regardless of arrival order.
  for (int order = 0; order < 2; ++order) {
    TopKSink sink(2);
    if (order == 0) {
      EmitPair(sink, {1}, {1});
      EmitPair(sink, {2}, {2});
      EmitPair(sink, {3}, {3});
    } else {
      EmitPair(sink, {3}, {3});
      EmitPair(sink, {2}, {2});
      EmitPair(sink, {1}, {1});
    }
    auto top = sink.Take();
    std::sort(top.begin(), top.end());
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], (Biclique{{1}, {1}}));
    EXPECT_EQ(top[1], (Biclique{{2}, {2}}));
  }
}

TEST(TeeSinkTest, FansOutAndPropagatesStop) {
  CountSink a;
  ShapeSink b;
  TeeSink tee({&a, &b});
  EmitPair(tee, {1, 2}, {3});
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.shape().count, 1u);
  EXPECT_FALSE(tee.ShouldStop());

  CountSink inner;
  BudgetSink stopper(&inner, 1, 0);
  TeeSink tee2({&a, &stopper});
  EmitPair(tee2, {1}, {2});
  EXPECT_TRUE(tee2.ShouldStop());
}

TEST(AnalysisIntegrationTest, OnePassCountShapeTopK) {
  BipartiteGraph graph = gen::PowerLaw(200, 150, 1000, 0.85, 0.8, 80);
  CountSink count;
  ShapeSink shape;
  TopKSink topk(5);
  TeeSink tee({&count, &shape, &topk});
  ASSERT_TRUE(Enumerate(graph, Options(), &tee, nullptr).ok());

  EXPECT_EQ(shape.shape().count, count.count());
  const auto top = topk.Take();
  ASSERT_LE(top.size(), 5u);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].num_edges(), shape.shape().max_edges);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].num_edges(), top[i].num_edges());
  }
  uint64_t hist_total = 0;
  for (uint64_t h : shape.shape().edge_histogram) hist_total += h;
  EXPECT_EQ(hist_total, count.count());
}

TEST(AnalysisIntegrationTest, ParallelTeeIsConsistent) {
  BipartiteGraph graph = gen::PowerLaw(200, 150, 1000, 0.85, 0.8, 81);
  Options options;
  options.threads = 4;
  CountSink count;
  TopKSink topk(3);
  TeeSink tee({&count, &topk});
  ASSERT_TRUE(Enumerate(graph, options, &tee, nullptr).ok());

  Options serial;
  TopKSink serial_topk(3);
  CountSink serial_count;
  TeeSink serial_tee({&serial_count, &serial_topk});
  ASSERT_TRUE(Enumerate(graph, serial, &serial_tee, nullptr).ok());

  EXPECT_EQ(count.count(), serial_count.count());
  auto a = topk.Take();
  auto b = serial_topk.Take();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mbe
