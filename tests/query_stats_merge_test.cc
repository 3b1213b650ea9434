#include "core/query_stats.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "core/method.h"

namespace vaq {
namespace {

// The merge contract's checksum, re-asserted where a reader will look for
// it: every QueryStats field is one 8-byte word, so a new field changes
// sizeof and fails this build (and MergeFrom's own static_assert) until
// both the merge and kFieldCount learn about it.
static_assert(sizeof(QueryStats) ==
                  QueryStats::kFieldCount * sizeof(std::uint64_t),
              "QueryStats field count drifted from kFieldCount");

QueryStats Filled(std::uint64_t base) {
  QueryStats s;
  s.candidates = base + 1;
  s.candidate_hits = base;
  s.results = base + 2;
  s.geometry_loads = base + 3;
  s.index_node_accesses = base + 4;
  s.neighbor_expansions = base + 5;
  s.segment_tests = base + 6;
  s.bulk_accepted = base + 7;
  s.visited_rejected = 1;  // Keeps candidates == hits + rejected.
  s.delta_candidates = base + 8;
  s.shards_hit = base + 9;
  s.shards_pruned = base + 10;
  s.pages_touched = base + 11;
  s.page_cache_hits = base + 12;
  s.page_cache_misses = base + 13;
  s.io_retries = base + 14;
  s.pages_quarantined = base + 15;
  s.result_cache_hits = base + 16;
  s.result_cache_misses = base + 17;
  s.elapsed_ms = static_cast<double>(base) + 0.5;
  return s;
}

TEST(QueryStatsMergeTest, AdditiveFieldsSum) {
  QueryStats a = Filled(10);
  const QueryStats b = Filled(100);
  a.MergeFrom(b);
  EXPECT_EQ(a.candidates, 11u + 101u);
  EXPECT_EQ(a.candidate_hits, 10u + 100u);
  EXPECT_EQ(a.results, 12u + 102u);
  EXPECT_EQ(a.geometry_loads, 13u + 103u);
  EXPECT_EQ(a.index_node_accesses, 14u + 104u);
  EXPECT_EQ(a.neighbor_expansions, 15u + 105u);
  EXPECT_EQ(a.segment_tests, 16u + 106u);
  EXPECT_EQ(a.bulk_accepted, 17u + 107u);
  EXPECT_EQ(a.visited_rejected, 2u);
  EXPECT_EQ(a.delta_candidates, 18u + 108u);
  EXPECT_EQ(a.shards_hit, 19u + 109u);
  EXPECT_EQ(a.shards_pruned, 20u + 110u);
  EXPECT_EQ(a.pages_touched, 21u + 111u);
  EXPECT_EQ(a.page_cache_hits, 22u + 112u);
  EXPECT_EQ(a.page_cache_misses, 23u + 113u);
  EXPECT_EQ(a.io_retries, 24u + 114u);
  EXPECT_EQ(a.pages_quarantined, 25u + 115u);
  EXPECT_EQ(a.result_cache_hits, 26u + 116u);
  EXPECT_EQ(a.result_cache_misses, 27u + 117u);
  EXPECT_DOUBLE_EQ(a.elapsed_ms, 10.5 + 100.5);
}

TEST(QueryStatsMergeTest, MaskFieldsOrInsteadOfAdding) {
  QueryStats a;
  a.kernel_kind = 0b0101;
  a.plan_method = MethodBit(DynamicMethod::kTraditional);
  a.plan_reason = 1u << 0;
  QueryStats b;
  b.kernel_kind = 0b0110;  // Adding would carry the shared bit.
  b.plan_method = MethodBit(DynamicMethod::kVoronoi);
  b.plan_reason = 1u << 4;
  a.MergeFrom(b);
  EXPECT_EQ(a.kernel_kind, 0b0111u);
  EXPECT_EQ(a.plan_method, MethodBit(DynamicMethod::kTraditional) |
                               MethodBit(DynamicMethod::kVoronoi));
  EXPECT_EQ(a.plan_reason, (1u << 0) | (1u << 4));
}

TEST(QueryStatsMergeTest, PreservesEpilogueInvariant) {
  // candidates == candidate_hits + visited_rejected survives merging when
  // both operands satisfy it — the property engine aggregation and the
  // sharded gather rely on.
  QueryStats a, b;
  a.candidates = 10;
  a.candidate_hits = 7;
  a.visited_rejected = 3;
  b.candidates = 20;
  b.candidate_hits = 16;
  b.visited_rejected = 4;
  a.MergeFrom(b);
  EXPECT_EQ(a.candidates, a.candidate_hits + a.visited_rejected);
  EXPECT_EQ(a.RedundantValidations(), 7u);
}

TEST(QueryStatsMergeTest, PlusEqualsIsTheSameMerge) {
  QueryStats via_merge = Filled(10);
  QueryStats via_plus = Filled(10);
  const QueryStats other = Filled(33);
  via_merge.MergeFrom(other);
  via_plus += other;
  EXPECT_EQ(via_merge.candidates, via_plus.candidates);
  EXPECT_EQ(via_merge.result_cache_misses, via_plus.result_cache_misses);
  EXPECT_DOUBLE_EQ(via_merge.elapsed_ms, via_plus.elapsed_ms);
}

TEST(QueryStatsMergeTest, MergeIntoDefaultCopiesAndResetClears) {
  const QueryStats src = Filled(5);
  QueryStats dst;
  dst.MergeFrom(src);
  EXPECT_EQ(dst.candidates, src.candidates);
  EXPECT_EQ(dst.result_cache_hits, src.result_cache_hits);
  dst.Reset();
  EXPECT_EQ(dst.candidates, 0u);
  EXPECT_EQ(dst.plan_method, 0u);
  EXPECT_DOUBLE_EQ(dst.elapsed_ms, 0.0);
}

}  // namespace
}  // namespace vaq
