// perfbench_runner: one workload of the paper-pipeline benchmark, in its
// own single-threaded process.
//
//   perfbench_runner --workload t5_linear|claims_quadratic|scale_implicit
//                    --seed S --seconds T --trace 0|1 [--spans FILE] [--smoke]
//
// A run sets up the workload several times (fixed constructions plus one
// warm-up point each), then measures a fixed number of points sized so the
// run takes about T seconds. Every point is timed on the process CPU clock
// and its outputs are checked; a point that fails or throws counts as
// attempted and failed. The instance list is a pure function of --seed, so
// two runs with one seed do identical work: the run-summed exact counts
// ("fingerprint") prove it.
//
// --trace 1 takes half as many inputs and runs each twice, untraced then
// traced, recording spans around each call the benchmark makes into a
// library layer (constructions, instantiate, the Network constructor,
// run/run_rounds, run_linear_reduction, the local solver, the checks).
// Spans stay in memory and are written to --spans FILE at the end; self
// time = span minus its child spans.
//
// The last stdout line is one JSON object of raw measurements that
// perfbench/run.py turns into the benchmark's metrics.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comm/blackboard.hpp"
#include "comm/instances.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/quadratic_family.hpp"
#include "maxis/parallel_bnb.hpp"
#include "sim/reduction.hpp"
#include "support/rng.hpp"

namespace clb = congestlb;

namespace {

// ---------------------------------------------------------------- clocks

double cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double wall_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Fixed integer work whose CPU time shows whether the machine itself was
/// slow during a run. Diagnostic only: it never scales a metric.
double calibration_ms() {
  const double c0 = cpu_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double c1 = cpu_ns();
  volatile std::uint64_t sink = x;
  (void)sink;
  return (c1 - c0) / 1e6;
}

// ---------------------------------------------------------------- spans

enum class Layer : std::uint8_t {
  kPoint,        // one measured point (root)
  kProbe,        // t5 standalone network run on the same G_xbar (root)
  kSetup,        // one set-up repetition (root)
  kBuild,        // LinearConstruction / QuadraticConstruction constructor
  kInstantiate,  // instantiate / instantiate_raw
  kNetwork,      // congest::Network constructor
  kRun,          // Network::run / run_rounds
  kReduction,    // sim::run_linear_reduction
  kSolve,        // maxis::solve_maxis
  kCheck,        // the benchmark's output checks
};
constexpr std::size_t kNumLayers = 10;
constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "point",          "probe",           "setup",
    "lowerbound.build", "lowerbound.instantiate", "congest.network",
    "congest.run",    "sim.reduction",   "maxis.solve",
    "claims.check"};

struct Span {
  Layer layer = Layer::kPoint;
  std::int32_t parent = -1;
  double start_ns = 0;  // process CPU clock
  double end_ns = 0;
};

/// In-memory span recorder. Disabled, it reads no clock and stores nothing.
class SpanLog {
 public:
  bool enabled = false;

  std::int32_t open(Layer layer) {
    if (!enabled) return -1;
    spans_.push_back({layer, current_, cpu_ns(), 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = cpu_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer) : log_(log), id_(log.open(layer)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Returns f() with its call recorded as one `layer` span. The result is a
/// prvalue, so non-movable results (congest::Network) construct in place.
template <typename F>
auto spanned(SpanLog& log, Layer layer, F&& f) {
  ScopedSpan span(log, layer);
  return f();
}

// ---------------------------------------------------------------- work

/// Exact work counts. Summed over a run's measured points they are the
/// run's fingerprint; two runs with one seed must match exactly.
struct Work {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t posts = 0;
  std::uint64_t board_bits = 0;
  std::uint64_t solves = 0;
  std::uint64_t search_nodes = 0;
  std::uint64_t kernel_nodes = 0;
  std::uint64_t jobs = 0;
  std::uint64_t nodes = 0;
  std::uint64_t explicit_edges = 0;
  std::uint64_t implicit_edges = 0;

  void count_graph(const clb::graph::Graph& g) {
    nodes += g.num_nodes();
    explicit_edges += g.num_explicit_edges();
    implicit_edges += g.num_implicit_edges();
  }
  void count_solve(const clb::maxis::EngineResult& r) {
    ++solves;
    search_nodes += r.search_nodes;
    kernel_nodes += r.kernel_nodes;
    jobs += r.jobs;
  }
  void count_run(const clb::congest::RunStats& s) {
    rounds += s.rounds;
    messages += s.messages_sent;
    bits += s.bits_sent;
  }
};

/// The state workloads call back into: the span log and the counters of
/// the point (or probe) being measured.
struct Harness {
  SpanLog log;
  Work* sink = nullptr;  // counters of the running point or probe

  clb::maxis::EngineResult solve(const clb::graph::Graph& g) {
    clb::maxis::EngineOptions opts;
    opts.threads = 1;
    ScopedSpan span(log, Layer::kSolve);
    auto r = clb::maxis::solve_maxis(g, opts);
    if (sink != nullptr) sink->count_solve(r);
    return r;
  }
};

/// Seed of the warm-up input. Fixed, so that set-up cost does not depend on
/// which instance --seed happens to draw for it.
constexpr std::uint64_t kWarmupSeed = 0x5EED;

/// A workload holds count + 1 inputs: inputs 0..count-1 drawn from --seed
/// and measured, input `count` drawn from kWarmupSeed for set-up.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs input `i`; true iff every check passed.
  virtual bool point(std::size_t i, Work& work) = 0;
  /// Traced runs only: extra measurement outside the point (t5's
  /// standalone network run). Its spans are roots of kind kProbe.
  virtual void probe(std::size_t, Work&) {}
};

// ------------------------------------------------------------- t5_linear

/// Theorem 5 at t = 3: the players replay the universal MaxIS program on
/// G_xbar over the blackboard. Set up exactly like `clb simulate`.
class T5Linear final : public Workload {
 public:
  T5Linear(Harness& h, std::size_t t, std::uint64_t seed, std::size_t count)
      : h_(h),
        params_(clb::lb::GadgetParams::for_linear_separation(t, 1)),
        c_(spanned(h.log, Layer::kBuild,
                   [&] { return clb::lb::LinearConstruction(params_, t); })) {
    cfg_.bits_per_edge = clb::congest::universal_required_bits(
        c_.num_nodes(), static_cast<clb::graph::Weight>(params_.ell));
    cfg_.max_rounds = 500'000;
    cfg_.num_threads = 1;
    factory_ = clb::congest::universal_maxis_factory(
        [this](const clb::graph::Graph& g) { return h_.solve(g).solution.nodes; });
    clb::Rng rng(seed), warmup(kWarmupSeed);
    for (std::size_t i = 0; i <= count; ++i) {
      clb::Rng& r = i < count ? rng : warmup;
      insts_.push_back(i % 2 == 0
                           ? clb::comm::make_uniquely_intersecting(params_.k, t, r)
                           : clb::comm::make_pairwise_disjoint(params_.k, t, r));
    }
  }

  bool point(std::size_t i, Work& work) override {
    const auto& inst = insts_[i];
    clb::comm::Blackboard board(inst.t);
    const auto rep = spanned(h_.log, Layer::kReduction, [&] {
      return clb::sim::run_linear_reduction(c_, inst, factory_, board, cfg_);
    });
    ScopedSpan span(h_.log, Layer::kCheck);
    work.count_run(rep.net_stats);
    work.posts += rep.blackboard_entries;
    work.board_bits += rep.blackboard_bits;
    work.count_graph(c_.fixed_graph());
    return rep.correct && rep.accounting_ok && rep.cut_accounting_exact;
  }

  void probe(std::size_t i, Work& work) override {
    const auto& inst = insts_[i];
    const auto gx = spanned(h_.log, Layer::kInstantiate,
                            [&] { return c_.instantiate(inst); });
    auto net = spanned(h_.log, Layer::kNetwork, [&] {
      return clb::congest::Network(gx, factory_, cfg_);
    });
    ScopedSpan span(h_.log, Layer::kRun);
    work.count_run(net.run());
    work.count_graph(gx);
  }

 private:
  Harness& h_;
  clb::lb::GadgetParams params_;
  clb::lb::LinearConstruction c_;
  clb::congest::NetworkConfig cfg_;
  clb::congest::ProgramFactory factory_;
  std::vector<clb::comm::PromiseInstance> insts_;
};

// ------------------------------------------------------- claims_quadratic

/// Claims 6-7 on F_xbar: a point is one YES instance (density 0.3) and one
/// NO instance (density 0.4), as in bench_gap_quadratic, each instantiated,
/// solved exactly, and checked against yes_weight() / no_bound().
class ClaimsQuadratic final : public Workload {
 public:
  ClaimsQuadratic(Harness& h, std::size_t ell, std::size_t k, std::size_t t,
                  std::uint64_t seed, std::size_t count)
      : h_(h),
        c_(spanned(h.log, Layer::kBuild, [&] {
          return clb::lb::QuadraticConstruction(
              clb::lb::GadgetParams::from_l_alpha(ell, 1, k), t);
        })) {
    clb::Rng rng(seed), warmup(kWarmupSeed);
    for (std::size_t i = 0; i <= count; ++i) {
      clb::Rng& r = i < count ? rng : warmup;
      auto yes = clb::comm::make_uniquely_intersecting(c_.string_length(), t,
                                                       r, 0.3);
      auto no =
          clb::comm::make_pairwise_disjoint(c_.string_length(), t, r, 0.4);
      pairs_.emplace_back(std::move(yes), std::move(no));
    }
  }

  bool point(std::size_t i, Work& work) override {
    const auto& [yes, no] = pairs_[i];
    // Non-short-circuit: both sides always run, pass or fail.
    return side(yes, true, work) & side(no, false, work);
  }

 private:
  bool side(const clb::comm::PromiseInstance& inst, bool want_yes, Work& work) {
    const auto g = spanned(h_.log, Layer::kInstantiate,
                           [&] { return c_.instantiate(inst); });
    const auto r = h_.solve(g);
    ScopedSpan span(h_.log, Layer::kCheck);
    work.count_graph(g);
    const auto& s = r.solution;
    const bool valid = !r.approximate && g.is_independent_set(s.nodes) &&
                       g.weight_of(s.nodes) == s.weight;
    const bool gap = want_yes ? s.weight >= c_.yes_weight()
                              : s.weight <= c_.no_bound();
    return valid && gap;
  }

  Harness& h_;
  clb::lb::QuadraticConstruction c_;
  std::vector<std::pair<clb::comm::PromiseInstance, clb::comm::PromiseInstance>>
      pairs_;
};

// -------------------------------------------------------- scale_implicit

/// One 16-bit broadcast per node per round with an O(1) inbox probe, like
/// bench_simulation's ScaleFlood, salted with the node's G_xbar weight so
/// the outputs depend on the instance.
class WeightedFlood final : public clb::congest::NodeProgram {
 public:
  void round(const clb::congest::NodeInfo& info,
             const clb::congest::Inbox& inbox, clb::congest::Outbox& outbox,
             clb::Rng&) override {
    if (!inbox.empty()) {
      const auto probe = inbox[0];
      if (probe) acc_ += clb::congest::MessageReader(*probe).get(16);
    }
    if (!info.neighbors.empty()) {
      const std::uint64_t payload =
          (static_cast<std::uint64_t>(info.id) * 31 +
           static_cast<std::uint64_t>(info.weight) + acc_) &
          0xFFFF;
      outbox.send_all(
          std::move(clb::congest::MessageWriter().put(payload, 16)).finish());
    }
  }
  bool finished() const override { return false; }
  std::int64_t output() const override {
    return static_cast<std::int64_t>(acc_ & 0x7FFFFFFFFFFFFFFFULL);
  }

 private:
  std::uint64_t acc_ = 0;
};

/// Implicit-block G_xbar: a point builds the construction, instantiates it
/// on random strings, constructs the broadcast-arena Network and runs a
/// fixed number of rounds.
class ScaleImplicit final : public Workload {
 public:
  static constexpr std::size_t kRounds = 4;
  static constexpr std::size_t kBitsPerMessage = 16;

  ScaleImplicit(Harness& h, std::size_t t, std::size_t threshold,
                std::uint64_t seed, std::size_t count)
      : h_(h), params_(clb::lb::GadgetParams::from_l_alpha(3, 1)), t_(t) {
    opts_.implicit_threshold = threshold;
    opts_.skip_labels = true;
    clb::Rng rng(seed), warmup(kWarmupSeed);
    for (std::size_t i = 0; i <= count; ++i) {
      clb::Rng& r = i < count ? rng : warmup;
      std::vector<std::vector<std::uint8_t>> strings(
          t, std::vector<std::uint8_t>(params_.k, 0));
      for (auto& s : strings) {
        for (auto& bit : s) bit = r.chance(0.3) ? 1 : 0;
      }
      insts_.push_back(std::move(strings));
    }
  }

  bool point(std::size_t i, Work& work) override {
    const auto c = spanned(h_.log, Layer::kBuild, [&] {
      return clb::lb::LinearConstruction(params_, t_, opts_);
    });
    const auto gx = spanned(h_.log, Layer::kInstantiate, [&] {
      return c.instantiate_raw(insts_[i]);
    });
    clb::congest::NetworkConfig cfg;
    cfg.bits_per_edge = kBitsPerMessage;
    cfg.broadcast_only = true;
    cfg.num_threads = 1;
    auto net = spanned(h_.log, Layer::kNetwork, [&] {
      return clb::congest::Network(
          gx,
          [](clb::graph::NodeId, const clb::congest::NodeInfo&) {
            return std::make_unique<WeightedFlood>();
          },
          cfg);
    });
    const auto stats = spanned(h_.log, Layer::kRun,
                               [&] { return net.run_rounds(kRounds); });
    ScopedSpan span(h_.log, Layer::kCheck);
    work.count_run(stats);
    work.count_graph(gx);
    const std::uint64_t edges =
        gx.num_explicit_edges() + gx.num_implicit_edges();
    return stats.rounds == kRounds &&
           stats.messages_sent == kRounds * 2 * edges &&
           stats.bits_sent == kBitsPerMessage * stats.messages_sent;
  }

 private:
  Harness& h_;
  clb::lb::GadgetParams params_;
  std::size_t t_;
  clb::lb::BuildOptions opts_;
  std::vector<std::vector<std::vector<std::uint8_t>>> insts_;
};

// ---------------------------------------------------------------- driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

/// Points measured at least (and the count in --smoke runs).
constexpr std::size_t kMinPoints = 4;

/// Per-workload sizing. `point_ms` is the nominal CPU cost of one point on
/// the reference machine (4-vCPU Intel Xeon VM); the point count is
/// seconds / point_ms, fixed per (workload, seconds) so that runs with one
/// seed do identical work.
struct Spec {
  double point_ms;
  std::function<std::unique_ptr<Workload>(Harness&, std::uint64_t seed,
                                          std::size_t count)>
      make;
};

std::optional<Spec> spec_for(const Args& a) {
  if (a.workload == "t5_linear") {
    const std::size_t t = a.smoke ? 2 : 3;
    return Spec{470, [t](Harness& h, std::uint64_t s, std::size_t n) {
                  return std::make_unique<T5Linear>(h, t, s, n);
                }};
  }
  if (a.workload == "claims_quadratic") {
    const std::size_t ell = a.smoke ? 2 : 6, k = a.smoke ? 3 : 7,
                      t = a.smoke ? 2 : 4;
    return Spec{100, [=](Harness& h, std::uint64_t s, std::size_t n) {
                  return std::make_unique<ClaimsQuadratic>(h, ell, k, t, s, n);
                }};
  }
  if (a.workload == "scale_implicit") {
    // n = 24 t: t = 4166 gives n = 99,984 with ~6.9e8 implicit edges.
    const std::size_t t = a.smoke ? 40 : 4166;
    const std::size_t threshold = a.smoke ? 64 : 4096;
    return Spec{380, [=](Harness& h, std::uint64_t s, std::size_t n) {
                  return std::make_unique<ScaleImplicit>(h, t, threshold, s, n);
                }};
  }
  return std::nullopt;
}

/// Per-layer CPU time over the spans under roots of one kind: inclusive
/// and self time and span count per layer.
struct LayerTotals {
  std::array<double, kNumLayers> total_ns{};
  std::array<double, kNumLayers> self_ns{};
  std::array<std::size_t, kNumLayers> spans{};

  double total(Layer l) const { return total_ns[static_cast<std::size_t>(l)]; }
  double self(Layer l) const { return self_ns[static_cast<std::size_t>(l)]; }
  std::size_t count(Layer l) const { return spans[static_cast<std::size_t>(l)]; }
};

LayerTotals aggregate(const std::vector<Span>& spans, Layer root_kind) {
  std::vector<double> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  LayerTotals out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t r = i;
    while (spans[r].parent >= 0) r = static_cast<std::size_t>(spans[r].parent);
    if (spans[r].layer != root_kind) continue;
    const auto l = static_cast<std::size_t>(spans[i].layer);
    const double d = spans[i].end_ns - spans[i].start_ns;
    out.total_ns[l] += d;
    out.self_ns[l] += d - child_ns[i];
    ++out.spans[l];
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench_runner: cannot write " << path << "\n";
    return;
  }
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << kLayerNames[static_cast<std::size_t>(s.layer)]
        << "\",\"cpu_start_ns\":" << static_cast<std::int64_t>(s.start_ns)
        << ",\"cpu_end_ns\":" << static_cast<std::int64_t>(s.end_ns) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::string json_list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << "]";
  return os.str();
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return std::nullopt;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) return std::nullopt;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return std::nullopt;
    }
  }
  return a;
}

struct Named {
  const char* name;
  double value;
};

struct LayerReport {
  /// The per-layer metrics, per measured point unless the name says
  /// otherwise.
  std::vector<Named> metrics;
  /// Self CPU ms per traced point by layer; sums to the traced point time.
  std::vector<Named> point_self_ms;
};

/// The per-layer figures of a traced run. Times come from the traced
/// copies' spans, counts from the untraced copies (the same inputs, so the
/// same counts).
LayerReport layer_report(const std::vector<Span>& spans, const Work& work,
                         std::size_t count, const std::vector<double>& cpu_ms,
                         const std::vector<double>& wall_ms,
                         const std::vector<double>& traced_cpu_ms,
                         double calibration_ms) {
  const LayerTotals su = aggregate(spans, Layer::kSetup);
  const LayerTotals pt = aggregate(spans, Layer::kPoint);
  const LayerTotals pr = aggregate(spans, Layer::kProbe);
  const double points = static_cast<double>(count);
  auto ms = [points](double ns) { return ns / points / 1e6; };
  auto per = [points](std::uint64_t c) { return static_cast<double>(c) / points; };

  // A t5 point's reduction span covers instantiate + Network + run +
  // blackboard posting in one library call. The probe (a standalone
  // Network on the same G_xbar) measures the first three; the blackboard
  // share is the remainder (derived, not a span of its own).
  const bool derived = pr.count(Layer::kRun) > 0;
  const double inst = derived ? pr.self(Layer::kInstantiate)
                              : pt.self(Layer::kInstantiate);
  const double net = derived ? pr.self(Layer::kNetwork) : pt.self(Layer::kNetwork);
  const double run = derived ? pr.self(Layer::kRun) : pt.self(Layer::kRun);
  const double board = derived ? pt.self(Layer::kReduction) - inst - net - run : 0;
  // Constructions run in set-up (t5, claims) or in every point (scale):
  // report the CPU time of one build wherever it ran.
  const std::size_t builds = su.count(Layer::kBuild) + pt.count(Layer::kBuild);
  const double build_ms =
      builds > 0 ? (su.total(Layer::kBuild) + pt.total(Layer::kBuild)) /
                       static_cast<double>(builds) / 1e6
                 : 0;
  const double point_ns = pt.total(Layer::kPoint);
  double sum_cpu = 0, sum_wall = 0;
  for (std::size_t i = 0; i < cpu_ms.size(); ++i) {
    sum_cpu += cpu_ms[i];
    sum_wall += wall_ms[i];
  }
  const double msgs = per(work.messages);
  const double net_bits = per(work.bits);
  LayerReport out;
  out.point_self_ms = {
      {"lowerbound.build", ms(pt.self(Layer::kBuild))},
      {"lowerbound.instantiate", ms(inst)},
      {"congest.network", ms(net)},
      {"congest.run", ms(run)},
      {"comm.blackboard (derived)", ms(board)},
      {"maxis.solve", ms(pt.self(Layer::kSolve))},
      {"claims.check", ms(pt.self(Layer::kCheck))},
      {"outside spans", ms(pt.self(Layer::kPoint))},
  };
  out.metrics = {
      {"lowerbound.build_ms", build_ms},
      {"lowerbound.instantiate_ms", ms(inst)},
      {"congest.network_ms", ms(net)},
      {"congest.run_ms", ms(run)},
      {"comm.blackboard_ms", ms(board)},
      {"maxis.solve_ms", ms(pt.self(Layer::kSolve))},
      {"claims.check_ms", ms(pt.self(Layer::kCheck))},
      {"sim.reduction_ms", ms(pt.total(Layer::kReduction))},
      {"harness.point_ms", ms(point_ns)},
      {"harness.span_coverage",
       point_ns > 0 ? 1 - pt.self(Layer::kPoint) / point_ns : 0},
      {"harness.trace_overhead", median(traced_cpu_ms) - median(cpu_ms)},
      {"harness.wall_over_cpu", sum_cpu > 0 ? sum_wall / sum_cpu : 0},
      {"harness.calibration_ms", calibration_ms},
      {"congest.rounds", per(work.rounds)},
      {"congest.messages", msgs},
      {"congest.bits", net_bits},
      {"congest.ns_per_message", msgs > 0 ? ms(run) * 1e6 / msgs : 0},
      {"comm.posts", per(work.posts)},
      {"comm.bits", per(work.board_bits)},
      {"comm.cut_share", net_bits > 0 ? per(work.board_bits) / net_bits : 0},
      {"maxis.solves", per(work.solves)},
      {"maxis.search_nodes", per(work.search_nodes)},
      {"maxis.kernel_nodes", per(work.kernel_nodes)},
      {"maxis.jobs", per(work.jobs)},
      {"graph.nodes", per(work.nodes)},
      {"graph.explicit_edges", per(work.explicit_edges)},
      {"graph.implicit_edges", per(work.implicit_edges)},
  };
  return out;
}

void write_named(std::ostream& os, const char* key,
                 const std::vector<Named>& rows) {
  os << ",\"" << key << "\":{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i ? "," : "") << "\"" << rows[i].name << "\":" << rows[i].value;
  }
  os << "}";
}

int run(const Args& a) {
  const auto spec = spec_for(a);
  if (!spec) {
    std::cerr << "perfbench_runner: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  // Traced runs measure every input twice (untraced, then traced), so they
  // take half the inputs to stay near the requested length.
  std::size_t count = std::max<std::size_t>(
      kMinPoints,
      static_cast<std::size_t>(a.seconds * 1000 / spec->point_ms + 0.5));
  if (a.smoke) count = kMinPoints;
  if (a.trace) count = std::max<std::size_t>(kMinPoints, count / 2);

  Harness h;
  std::size_t attempted = 0, failed = 0;
  auto checked_point = [&](Workload& w, std::size_t i, Work& work) {
    ++attempted;
    h.sink = &work;
    bool ok = false;
    try {
      ok = w.point(i, work);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_runner: point " << i << " threw: " << e.what()
                << "\n";
    }
    h.sink = nullptr;
    if (!ok) ++failed;
  };

  // Set-up, repeated: the fixed constructions plus one warm-up point on the
  // warm-up input. The first repetition also carries the process start-up
  // (the CPU clock starts at exec).
  constexpr std::size_t kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  Work warmup_work;
  h.log.enabled = a.trace;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    const double c0 = rep == 0 ? 0.0 : cpu_ns();
    ScopedSpan span(h.log, Layer::kSetup);
    w.reset();
    w = spec->make(h, a.seed, count);
    checked_point(*w, count, warmup_work);
    setup_s.push_back((cpu_ns() - c0) / 1e9);
  }
  h.log.enabled = false;
  const double calib_start_ms = calibration_ms();

  // A program many times slower than the point budget assumes would run
  // past the caller's time limit; stop at this wall-clock cap instead, so
  // the slowdown is reported (as fewer points) rather than lost.
  const double cap_ns = std::min(4 * a.seconds, 120.0) * 1e9;
  const double measure_start_ns = wall_ns();
  bool truncated = false;
  std::vector<double> cpu_ms, wall_ms, traced_cpu_ms;
  Work work;
  for (std::size_t i = 0; i < count; ++i) {
    if (i >= kMinPoints && wall_ns() - measure_start_ns > cap_ns) {
      truncated = true;
      count = i;
      break;
    }
    const double w0 = wall_ns(), c0 = cpu_ns();
    checked_point(*w, i, work);
    const double c1 = cpu_ns(), w1 = wall_ns();
    cpu_ms.push_back((c1 - c0) / 1e6);
    wall_ms.push_back((w1 - w0) / 1e6);
    if (!a.trace) continue;

    Work traced_work, probe_work;
    h.log.enabled = true;
    const double t0 = cpu_ns();
    {
      ScopedSpan span(h.log, Layer::kPoint);
      checked_point(*w, i, traced_work);
    }
    traced_cpu_ms.push_back((cpu_ns() - t0) / 1e6);
    {
      ScopedSpan span(h.log, Layer::kProbe);
      h.sink = &probe_work;
      w->probe(i, probe_work);
      h.sink = nullptr;
    }
    h.log.enabled = false;
  }
  const double calib_end_ms = calibration_ms();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
     << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"point_cpu_ms\":" << json_list(cpu_ms)
     << ",\"point_wall_ms\":" << json_list(wall_ms)
     << ",\"setup_s\":" << json_list(setup_s)
     << ",\"peak_rss_kb\":" << ru.ru_maxrss << ",\"calibration_ms\":"
     << json_list({calib_start_ms, calib_end_ms}) << ",\"fingerprint\":{"
     << "\"points\":" << count << ",\"rounds\":" << work.rounds
     << ",\"messages\":" << work.messages << ",\"bits\":" << work.bits
     << ",\"posts\":" << work.posts << ",\"board_bits\":" << work.board_bits
     << ",\"solves\":" << work.solves
     << ",\"search_nodes\":" << work.search_nodes
     << ",\"nodes\":" << work.nodes
     << ",\"explicit_edges\":" << work.explicit_edges
     << ",\"implicit_edges\":" << work.implicit_edges
     << ",\"truncated\":" << (truncated ? "true" : "false") << "}";
  if (a.trace) {
    const auto report =
        layer_report(h.log.spans(), work, count, cpu_ms, wall_ms,
                     traced_cpu_ms, (calib_start_ms + calib_end_ms) / 2);
    write_named(os, "layers", report.metrics);
    write_named(os, "point_self_ms", report.point_self_ms);
    if (!a.spans_path.empty()) write_spans(a.spans_path, h.log.spans());
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args || args->workload.empty()) {
    std::cerr << "usage: perfbench_runner --workload W --seed S --seconds T "
                 "--trace 0|1 [--spans FILE] [--smoke]\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}
