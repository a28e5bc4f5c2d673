// Unit tests of the benchmark's own machinery: order statistics, span
// self-time arithmetic, the determinism memory and the ingest stream
// generator's expectations.
#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "bench.hpp"
#include "ingest.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: order must not matter
  return v;
}

TEST(Stats, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  // p99 of n samples sits at rank ceil(0.99 n); n - rank samples lie beyond.
  EXPECT_FALSE(tail_percentile(one_to(100), 0.99).has_value());   // 1 beyond
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());   // 9 beyond
  const auto p99 = tail_percentile(one_to(1000), 0.99);           // 10 beyond
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);
  const auto p90 = tail_percentile(one_to(100), 0.90);            // 10 beyond
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
  for (const double q : {0.5, 0.9, 0.99}) {
    const std::size_t n = samples_for_tail(q);
    EXPECT_TRUE(tail_percentile(one_to(static_cast<int>(n)), q).has_value()) << q;
  }
}

TEST(Stats, SetupMedianTopsUpShortSetups) {
  int calls = 0;
  const double m = setup_median({0.5}, [&] {
    ++calls;
    return 1.0;
  });
  EXPECT_EQ(calls, 4);  // five samples, already over the time floor
  EXPECT_DOUBLE_EQ(m, 1.0);
  calls = 0;
  setup_median({}, [&] {
    ++calls;
    return 0.001;
  });
  EXPECT_EQ(calls, 25);  // millisecond set-ups: capped sample count
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanLog log;
  log.open(SpanName::OnFrame, 7, 0);
  log.open(SpanName::Ingest, 7, 10);
  log.close(30);
  log.open(SpanName::Batch, 7, 40);
  log.open(SpanName::Rules, 7, 50);
  log.close(60);
  log.close(70);
  log.close(100);
  EXPECT_EQ(log.open_spans(), 0u);

  EXPECT_EQ(log.totals(SpanName::OnFrame).total_ns, 100);
  EXPECT_EQ(log.totals(SpanName::OnFrame).self_ns, 100 - 20 - 30);
  EXPECT_EQ(log.totals(SpanName::Ingest).self_ns, 20);
  EXPECT_EQ(log.totals(SpanName::Batch).self_ns, 30 - 10);
  EXPECT_EQ(log.totals(SpanName::Rules).self_ns, 10);

  const auto& spans = log.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  for (const auto& s : spans) EXPECT_EQ(s.group, 7u);
}

TEST(Spans, TotalsCoverSpansBeyondTheKeptCap) {
  SpanLog log{2};
  for (int i = 0; i < 5; ++i) {
    log.open(SpanName::Rules, static_cast<std::uint64_t>(i), i * 10);
    log.close(i * 10 + 4);
  }
  EXPECT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.totals(SpanName::Rules).count, 5u);
  EXPECT_EQ(log.totals(SpanName::Rules).self_ns, 20);
}

TEST(DeterminismMemory, ComparesOnlyWithinOneBuild) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::current_path() / "self-test-state";
  fs::remove_all(dir);
  fs::create_directories(dir);
  RunArgs old_build;
  old_build.workload = "fleet_sleepy";
  old_build.seed = 5;
  old_build.state_dir = dir.string();
  old_build.build_id = "0123456789abcdef";
  EXPECT_TRUE(same_as_earlier_runs(old_build, "warmup", 1));   // recorded
  EXPECT_TRUE(same_as_earlier_runs(old_build, "warmup", 1));   // repeated
  EXPECT_FALSE(same_as_earlier_runs(old_build, "warmup", 2));  // moved: a failure

  // A rebuild whose change moves the digest on purpose starts a fresh
  // record instead of failing against the old build's.
  RunArgs new_build = old_build;
  new_build.build_id = "fedcba9876543210";
  EXPECT_TRUE(same_as_earlier_runs(new_build, "warmup", 2));
  EXPECT_FALSE(same_as_earlier_runs(new_build, "warmup", 1));
  EXPECT_FALSE(same_as_earlier_runs(old_build, "warmup", 2));  // old record kept
  fs::remove_all(dir);
}

IngestParams small_stream() {
  IngestParams p;
  p.devices = 40;
  p.messages = 4000;
  return p;
}

TEST(IngestGenerator, ExpectedDeliveriesMatchAReceiver) {
  const IngestStream s = generate_stream(small_stream(), 42);
  ASSERT_GT(s.frames(), 4000u);  // multi-fragment messages add frames
  EXPECT_GT(s.stale_after.back(), 0u);
  EXPECT_LT(s.expected_after.back(), 4000u);  // stale copies are not new messages

  IngestRig rig{s.devices, nullptr};
  std::vector<double> steps;
  const std::size_t replayed = rig.replay(s, INT64_MAX, steps, nullptr);
  ASSERT_EQ(replayed, s.frames());
  EXPECT_EQ(steps.size(), s.step_ends.size());
  EXPECT_EQ(rig.receiver().stats().messages, s.expected_after.back());
  EXPECT_EQ(rig.receiver().stats().duplicates, s.stale_after.back());
  EXPECT_EQ(rig.chain().readings_evaluated(), s.expected_after.back());
  EXPECT_EQ(rig.rejected(replayed), 0u);

  RunResult r;
  rig.check(s, replayed, r);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.attempted, s.expected_after.back());
  EXPECT_EQ(r.failed, 0u);
}

TEST(IngestGenerator, PrefixReplayMatchesThePrefixExpectation) {
  const IngestStream s = generate_stream(small_stream(), 7);
  IngestRig rig{s.devices, nullptr};
  std::vector<double> steps;
  // A deadline already passed stops at the first stream-second boundary.
  const std::size_t replayed = rig.replay(s, 0, steps, nullptr);
  ASSERT_EQ(replayed, s.step_ends.front());
  RunResult r;
  rig.check(s, replayed, r);
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(rig.receiver().stats().messages, s.expected_after[replayed - 1]);
}

TEST(IngestGenerator, SameSeedSameStream) {
  const IngestStream a = generate_stream(small_stream(), 3);
  const IngestStream b = generate_stream(small_stream(), 3);
  const IngestStream c = generate_stream(small_stream(), 4);
  EXPECT_EQ(a.arena, b.arena);
  EXPECT_NE(a.arena, c.arena);
}

TEST(Report, JsonCarriesEveryField) {
  RunResult r;
  r.attempted = 3;
  r.metric("sim_rate", 1.5, "sim_s/s");
  r.check(false, "broken");
  EXPECT_EQ(to_json(r),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"sim_rate\": {\"value\": 1.5, \"unit\": \"sim_s/s\"}}}");
}

}  // namespace
}  // namespace perfbench
