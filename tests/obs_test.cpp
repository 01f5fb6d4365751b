// Unit tests for the observability layer: metrics instruments and registry
// (src/obs/metrics.hpp), the trace ring and staging discipline
// (src/obs/trace.hpp), and the exporters (src/obs/export.hpp).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace congestlb::obs {
namespace {

TEST(Metrics, CounterMergesShardCells) {
  MetricsRegistry reg(4);
  Counter& c = reg.counter("test.count");
  c.add(1, 0);
  c.add(10, 1);
  c.add(100, 2);
  c.add(1000, 3);
  c.inc(1);
  EXPECT_EQ(c.value(), 1112u);
  EXPECT_EQ(c.name(), "test.count");
}

TEST(Metrics, GaugeIsLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("test.gauge");
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  MetricsRegistry reg(2);
  Histogram& h = reg.histogram("test.hist", {8, 16, 32});
  h.observe(1, 0);    // <= 8
  h.observe(8, 1);    // <= 8 (inclusive upper bound)
  h.observe(9, 0);    // <= 16
  h.observe(32, 0);   // <= 32
  h.observe(33, 1);   // overflow
  h.observe(1000, 0); // overflow
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{2, 1, 1, 2}));
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1u + 8 + 9 + 32 + 33 + 1000);
}

TEST(Metrics, RegistryFindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same.name");
  // Force reallocation pressure behind the scenes.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.counters().size(), 101u);
  EXPECT_EQ(reg.counters().front()->name(), "same.name");
}

TEST(Metrics, EnsureShardsGrowsExistingInstruments) {
  MetricsRegistry reg(1);
  Counter& c = reg.counter("grown");
  Histogram& h = reg.histogram("grown.hist", {10});
  c.add(5, 0);
  h.observe(3, 0);
  reg.ensure_shards(8);
  c.add(7, 7);
  h.observe(11, 7);
  EXPECT_EQ(c.value(), 12u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1}));
}

TEST(Metrics, DefaultRegistryIsAProcessSingleton) {
  EXPECT_EQ(&default_registry(), &default_registry());
}

TEST(Trace, DisabledWhenCapacityZero) {
  Tracer t({.capacity = 0});
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.sampled(0));
  t.emit({1, 0, 0, 0, EventKind::kPhase});  // must be a safe no-op
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  if (!trace_compiled_in()) GTEST_SKIP() << "CONGESTLB_TRACE=0";
  Tracer t({.capacity = 4});
  for (std::uint32_t i = 0; i < 6; ++i) {
    t.emit({i, i, 0, 0, EventKind::kPhase});
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.recorded(), 6u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].value, i + 2u) << "ring must keep the newest window";
  }
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Trace, EventsSinceTailsTheRingAsAFeed) {
  if (!trace_compiled_in()) GTEST_SKIP() << "CONGESTLB_TRACE=0";
  Tracer t({.capacity = 4});
  std::uint64_t next = 0;
  // Empty ring: nothing, and next stays at the cursor origin.
  EXPECT_TRUE(t.events_since(0, &next).empty());
  EXPECT_EQ(next, 0u);

  for (std::uint32_t i = 0; i < 3; ++i) {
    t.emit({i, i, 0, 0, EventKind::kPhase});
  }
  auto evs = t.events_since(0, &next);
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(next, 3u);
  EXPECT_EQ(evs[0].value, 0u);
  EXPECT_EQ(evs[2].value, 2u);

  // Incremental tail: only the new events since the cursor.
  t.emit({3, 3, 0, 0, EventKind::kPhase});
  evs = t.events_since(next, &next);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].value, 3u);
  EXPECT_EQ(next, 4u);

  // A cursor past the end yields nothing (idempotent poll).
  EXPECT_TRUE(t.events_since(next, &next).empty());

  // Fall behind by more than the capacity: the overwritten prefix is gone
  // and the feed resumes at the oldest surviving event, with the gap
  // visible as next - since > returned size.
  for (std::uint32_t i = 4; i < 10; ++i) {
    t.emit({i, i, 0, 0, EventKind::kPhase});
  }
  evs = t.events_since(4, &next);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].value, 6u) << "seq 4,5 were overwritten";
  EXPECT_EQ(next, 10u);
}

TEST(Trace, SealDrainsPhaseMajorShardAscending) {
  if (!trace_compiled_in()) GTEST_SKIP() << "CONGESTLB_TRACE=0";
  Tracer t({.capacity = 64});
  t.bind(/*num_shards=*/3, /*per_shard_capacity=*/4);
  // Emit out of order: deliver-phase first, shards descending.
  t.emit_shard(1, 2, {12, 0, 0, 0, EventKind::kDeliver});
  t.emit_shard(1, 0, {10, 0, 0, 0, EventKind::kDeliver});
  t.emit_shard(0, 2, {2, 0, 0, 0, EventKind::kSend});
  t.emit_shard(0, 0, {0, 0, 0, 0, EventKind::kSend});
  t.emit_shard(0, 1, {1, 0, 0, 0, EventKind::kSend});
  t.seal_round();
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 5u);
  // Canonical order: phase 0 shards 0,1,2 then phase 1 shards 0,2.
  EXPECT_EQ(evs[0].value, 0u);
  EXPECT_EQ(evs[1].value, 1u);
  EXPECT_EQ(evs[2].value, 2u);
  EXPECT_EQ(evs[3].value, 10u);
  EXPECT_EQ(evs[4].value, 12u);
}

TEST(Trace, StagingOverflowCountsAsDropped) {
  if (!trace_compiled_in()) GTEST_SKIP() << "CONGESTLB_TRACE=0";
  Tracer t({.capacity = 64});
  t.bind(1, 2);
  for (std::uint32_t i = 0; i < 5; ++i) {
    t.emit_shard(0, 0, {i, 0, 0, 0, EventKind::kSend});
  }
  t.seal_round();
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
}

TEST(Trace, SamplingPeriod) {
  Tracer t({.capacity = 16, .sample_period = 4});
  if (!trace_compiled_in()) {
    EXPECT_FALSE(t.sampled(0));
    return;
  }
  EXPECT_TRUE(t.sampled(0));
  EXPECT_FALSE(t.sampled(1));
  EXPECT_FALSE(t.sampled(3));
  EXPECT_TRUE(t.sampled(4));
  EXPECT_TRUE(t.sampled(8));
}

TEST(Trace, EventKindNamesAreStable) {
  // The canonical form (and the golden trace) stores kinds by these names.
  EXPECT_STREQ(to_string(EventKind::kRoundBegin), "round_begin");
  EXPECT_STREQ(to_string(EventKind::kRoundEnd), "round_end");
  EXPECT_STREQ(to_string(EventKind::kSend), "send");
  EXPECT_STREQ(to_string(EventKind::kDeliver), "deliver");
  EXPECT_STREQ(to_string(EventKind::kPhase), "phase");
  EXPECT_STREQ(to_string(EventKind::kBlackboardPost), "blackboard_post");
}

TEST(Trace, CanonicalFormIsByteStable) {
  const std::vector<TraceEvent> evs = {
      {48, 0, TraceEvent::kNone, TraceEvent::kNone, EventKind::kRoundBegin},
      {16, 0, 3, 5, EventKind::kDeliver},
      {5, 2, 7, TraceEvent::kNone, EventKind::kBlackboardPost},
  };
  std::ostringstream os;
  write_canonical(os, evs);
  EXPECT_EQ(os.str(),
            "0 round_begin - - 48\n"
            "0 deliver 3 5 16\n"
            "2 blackboard_post 7 - 5\n");
}

TEST(Export, ChromeTraceIsWellFormedForEveryEventKind) {
  // One event of every kind; the exporter must produce parseable JSON with
  // the four phase types it uses (M metadata, X slices, i instants,
  // C counters). Structural validation is in fuzz_test; here we pin the
  // envelope.
  std::vector<TraceEvent> evs;
  evs.push_back({3, 0, TraceEvent::kNone, TraceEvent::kNone,
                 EventKind::kRoundBegin});
  evs.push_back({16, 0, 0, 1, EventKind::kSend});
  evs.push_back({16, 0, 0, 1, EventKind::kDeliver});
  evs.push_back({16, 0, 1, 0, EventKind::kDeliver});
  evs.push_back({5, 0, 0, TraceEvent::kNone, EventKind::kBlackboardPost});
  evs.push_back({1, 0, TraceEvent::kNone, TraceEvent::kNone,
                 EventKind::kPhase});
  evs.push_back({3, 0, TraceEvent::kNone, TraceEvent::kNone,
                 EventKind::kRoundEnd});
  ChromeTraceOptions opt;
  opt.cut_edges.emplace_back(0, 1);
  std::ostringstream os;
  write_chrome_trace(os, evs, opt);
  const std::string json = os.str();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"deliver\""), std::string::npos);
  std::ptrdiff_t depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if (ch == '}' || ch == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced braces/brackets";
  EXPECT_FALSE(in_string) << "unterminated string";
}

TEST(Export, MetricsJsonListsEveryInstrument) {
  MetricsRegistry reg(2);
  reg.counter("a.count").add(7, 1);
  reg.gauge("b.gauge").set(-3);
  reg.histogram("c.hist", {4, 8}).observe(6, 0);
  std::ostringstream os;
  write_metrics_json(os, reg);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  EXPECT_NE(json.find("-3"), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
}

}  // namespace
}  // namespace congestlb::obs
