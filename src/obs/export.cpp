#include "obs/export.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>

#include "support/json.hpp"

namespace congestlb::obs {

namespace {

/// Trace-clock offsets inside one round: begin < scheduled marks < sends <
/// deliveries < end, so the timeline mirrors the engine's phase order.
constexpr std::uint64_t kOffBegin = 0;
constexpr std::uint64_t kOffSend = 1;
constexpr std::uint64_t kOffDeliver = 2;

std::uint64_t lane_of_node(std::uint32_t v) {
  // tid 0 is the "rounds" lane; nodes start at 1.
  return static_cast<std::uint64_t>(v) + 1;
}

/// One instant ("i") event on a node/round lane.
void instant(JsonWriter& jw, const char* name, std::uint64_t ts,
             std::uint64_t pid, std::uint64_t tid) {
  jw.begin_object();
  jw.kv("name", name);
  jw.kv("ph", "i");
  jw.kv("s", "t");
  jw.kv("ts", ts);
  jw.kv("pid", pid);
  jw.kv("tid", tid);
}

void meta_name(JsonWriter& jw, const char* kind, std::uint64_t pid,
               std::uint64_t tid, const std::string& name) {
  jw.begin_object();
  jw.kv("name", kind);
  jw.kv("ph", "M");
  jw.kv("pid", pid);
  jw.kv("tid", tid);
  jw.key("args");
  jw.begin_object();
  jw.kv("name", name);
  jw.end_object();
  jw.end_object();
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        const ChromeTraceOptions& options) {
  const std::uint64_t ticks = options.ticks_per_round == 0
                                  ? 1
                                  : options.ticks_per_round;
  JsonWriter jw(os);
  jw.begin_object();
  jw.kv("displayTimeUnit", "ms");
  jw.key("traceEvents");
  jw.begin_array();

  // Process/thread metadata for every lane that will appear.
  meta_name(jw, "process_name", 0, 0, "congest engine");
  meta_name(jw, "thread_name", 0, 0, "rounds");
  std::uint32_t max_node = 0;
  bool any_node = false;
  bool any_board = false;
  std::uint32_t max_player = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::kBlackboardPost) {
      any_board = true;
      if (ev.a != TraceEvent::kNone) max_player = std::max(max_player, ev.a);
      continue;
    }
    for (std::uint32_t v : {ev.a, ev.b}) {
      if (v != TraceEvent::kNone) {
        any_node = true;
        max_node = std::max(max_node, v);
      }
    }
  }
  if (any_node) {
    for (std::uint32_t v = 0; v <= max_node; ++v) {
      meta_name(jw, "thread_name", 0, lane_of_node(v),
                "node " + std::to_string(v));
    }
  }
  if (any_board) {
    meta_name(jw, "process_name", 1, 0, "blackboard");
    for (std::uint32_t p = 0; p <= max_player; ++p) {
      meta_name(jw, "thread_name", 1, p, "player " + std::to_string(p));
    }
  }
  if (!options.cut_edges.empty()) {
    meta_name(jw, "process_name", 2, 0, "cut edges");
  }

  // Per-(cut-edge, round) delivered bits, filled while walking the events.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> cut_index;
  for (std::size_t i = 0; i < options.cut_edges.size(); ++i) {
    auto [u, v] = options.cut_edges[i];
    if (u > v) std::swap(u, v);
    cut_index.emplace(std::make_pair(u, v), i);
  }
  std::vector<std::map<std::uint32_t, std::uint64_t>> cut_bits(
      options.cut_edges.size());

  for (const TraceEvent& ev : events) {
    const std::uint64_t base = static_cast<std::uint64_t>(ev.round) * ticks;
    switch (ev.kind) {
      case EventKind::kRoundBegin:
        break;  // the round slice is emitted at kRoundEnd
      case EventKind::kRoundEnd:
        jw.begin_object();
        jw.kv("name", "round");
        jw.kv("ph", "X");
        jw.kv("ts", base + kOffBegin);
        jw.kv("dur", ticks);
        jw.kv("pid", 0);
        jw.kv("tid", 0);
        jw.key("args");
        jw.begin_object();
        jw.kv("round", static_cast<std::uint64_t>(ev.round));
        jw.kv("delivered", ev.value);
        jw.end_object();
        jw.end_object();
        break;
      case EventKind::kSend:
        instant(jw, "send", base + kOffSend, 0, lane_of_node(ev.a));
        jw.key("args");
        jw.begin_object();
        jw.kv("to", static_cast<std::uint64_t>(ev.b));
        jw.kv("bits", ev.value);
        jw.end_object();
        jw.end_object();
        break;
      case EventKind::kDeliver: {
        instant(jw, "deliver", base + kOffDeliver, 0, lane_of_node(ev.b));
        jw.key("args");
        jw.begin_object();
        jw.kv("from", static_cast<std::uint64_t>(ev.a));
        jw.kv("bits", ev.value);
        jw.end_object();
        jw.end_object();
        if (!cut_index.empty()) {
          auto key = std::make_pair(std::min(ev.a, ev.b),
                                    std::max(ev.a, ev.b));
          const auto it = cut_index.find(key);
          if (it != cut_index.end()) {
            cut_bits[it->second][ev.round] += ev.value;
          }
        }
        break;
      }
      case EventKind::kPhase:
        instant(jw, "phase", base + kOffBegin, 0, 0);
        jw.key("args");
        jw.begin_object();
        jw.kv("id", ev.value);
        jw.end_object();
        jw.end_object();
        break;
      case EventKind::kBlackboardPost:
        // `round` carries the transcript entry index for blackboard posts.
        instant(jw, "post", base, 1, static_cast<std::uint64_t>(ev.a));
        jw.key("args");
        jw.begin_object();
        jw.kv("bits", ev.value);
        jw.end_object();
        jw.end_object();
        break;
    }
  }

  // One counter lane per cut edge: the bits that crossed it each round.
  for (std::size_t i = 0; i < options.cut_edges.size(); ++i) {
    const auto [u, v] = options.cut_edges[i];
    const std::string name =
        "cut " + std::to_string(u) + "-" + std::to_string(v);
    for (const auto& [round, bits] : cut_bits[i]) {
      jw.begin_object();
      jw.kv("name", name);
      jw.kv("ph", "C");
      jw.kv("ts", static_cast<std::uint64_t>(round) * ticks);
      jw.kv("pid", 2);
      jw.kv("tid", static_cast<std::uint64_t>(i));
      jw.key("args");
      jw.begin_object();
      jw.kv("bits", bits);
      jw.end_object();
      jw.end_object();
    }
  }

  jw.end_array();
  jw.end_object();
  os << "\n";
}

void append_metrics(JsonWriter& jw, const MetricsRegistry& registry) {
  append_metrics(jw, registry, std::string_view{});
}

void append_metrics(JsonWriter& jw, const MetricsRegistry& registry,
                    std::string_view prefix) {
  const auto matches = [prefix](const std::string& name) {
    return name.size() >= prefix.size() &&
           std::string_view(name).substr(0, prefix.size()) == prefix;
  };
  jw.begin_object();
  jw.key("counters");
  jw.begin_object();
  for (const auto& c : registry.counters()) {
    if (matches(c->name())) jw.kv(c->name(), c->value());
  }
  jw.end_object();
  jw.key("gauges");
  jw.begin_object();
  for (const auto& g : registry.gauges()) {
    if (matches(g->name())) jw.kv(g->name(), g->value());
  }
  jw.end_object();
  jw.key("histograms");
  jw.begin_object();
  for (const auto& h : registry.histograms()) {
    if (!matches(h->name())) continue;
    jw.key(h->name());
    jw.begin_object();
    jw.key("upper_bounds");
    jw.begin_array();
    for (std::uint64_t b : h->upper_bounds()) jw.value(b);
    jw.end_array();
    jw.key("counts");
    jw.begin_array();
    for (std::uint64_t c : h->bucket_counts()) jw.value(c);
    jw.end_array();
    jw.kv("count", h->count());
    jw.kv("sum", h->sum());
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry) {
  JsonWriter jw(os);
  append_metrics(jw, registry);
  os << "\n";
}

}  // namespace congestlb::obs
