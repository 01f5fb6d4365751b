#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include <unistd.h>  // environ

#include "campaign/scheduler.hpp"
#include "maxis/parallel_bnb.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace congestlb::campaign {

std::uint64_t check_job_seed(std::uint64_t campaign_seed,
                             std::string_view sweep_name,
                             std::size_t point_index) {
  return hash_mix(campaign_seed, fnv1a64(sweep_name), point_index, 3);
}

namespace {

enum class Stage : std::uint8_t { kBuild, kSolveYes, kSolveNo, kCheck };
enum class Mode : std::uint8_t { kRun, kReplay, kSkip };

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kBuild: return "build";
    case Stage::kSolveYes: return "solve-yes";
    case Stage::kSolveNo: return "solve-no";
    case Stage::kCheck: return "check";
  }
  return "?";
}

bool is_claim(CheckKind kind) {
  return kind == CheckKind::kClaim12 || kind == CheckKind::kClaim35;
}

bool is_algorithm(CheckKind kind) {
  return kind == CheckKind::kApproxSweep ||
         kind == CheckKind::kBlackboardSweep;
}

/// One node of the expanded job DAG. Everything here — ids, seeds, input
/// hashes, dependency edges — is derived purely from the spec, before any
/// job runs; the scheduler only decides *when*, never *what*.
struct ExpandedJob {
  std::string id;
  Stage stage = Stage::kBuild;
  CheckKind check = CheckKind::kProperty1;
  ResolvedPoint point;
  std::uint64_t seed = 0;
  std::size_t trials = 0;
  std::size_t sample_budget = 0;
  std::size_t eps_num = 1;  ///< algorithm sweeps only
  std::size_t eps_den = 4;
  std::size_t gadget_idx = 0;     ///< shared built-construction slot
  std::size_t point_slot = kNone; ///< claim sweeps: solve-result slot
  std::uint64_t inputs_hash = 0;
  std::vector<std::size_t> deps;  ///< expanded-job indices
};

struct Expansion {
  std::vector<ExpandedJob> jobs;
  std::vector<ResolvedPoint> gadget_points;  ///< indexed by gadget_idx
  std::size_t num_point_slots = 0;
};

Expansion expand(const CampaignSpec& spec) {
  Expansion x;
  std::map<std::string, std::size_t> build_by_key;  // gadget key -> job idx
  std::map<std::string, std::size_t> by_id;

  const auto push = [&](ExpandedJob e) -> std::size_t {
    const std::size_t idx = x.jobs.size();
    CLB_EXPECT(by_id.emplace(e.id, idx).second,
               "campaign: duplicate job id (repeated point in a sweep?)");
    x.jobs.push_back(std::move(e));
    return idx;
  };

  // One build job per distinct gadget shape, shared across sweeps — this
  // dedup is what keeps "which sweep got the cache hit" out of the DAG.
  const auto build_job_for = [&](const ResolvedPoint& p,
                                 const std::string& key) -> std::size_t {
    const auto it = build_by_key.find(key);
    if (it != build_by_key.end()) return it->second;
    ExpandedJob e;
    e.id = "gadget/" + p.canonical();
    e.stage = Stage::kBuild;
    e.point = p;
    e.inputs_hash = fnv1a64(key);
    e.gadget_idx = x.gadget_points.size();
    x.gadget_points.push_back(p);
    const std::size_t idx = push(std::move(e));
    build_by_key.emplace(key, idx);
    return idx;
  };

  for (const SweepSpec& sweep : spec.sweeps) {
    const std::uint64_t sweep_hash = fnv1a64(sweep.name);
    for (std::size_t pi = 0; pi < sweep.points.size(); ++pi) {
      const ResolvedPoint p = resolve_point(sweep.points[pi]);
      const std::string gkey = gadget_cache_key(p);
      const std::size_t build = build_job_for(p, gkey);
      const std::string prefix = sweep.name + "/" + p.canonical() + "/";

      if (!is_claim(sweep.check)) {
        ExpandedJob c;
        c.id = prefix + "check";
        c.stage = Stage::kCheck;
        c.check = sweep.check;
        c.point = p;
        c.seed = check_job_seed(spec.seed, sweep.name, pi);
        c.sample_budget = sweep.sample_budget;
        c.eps_num = sweep.eps_num;
        c.eps_den = sweep.eps_den;
        c.gadget_idx = x.jobs[build].gadget_idx;
        std::string hash_src = gkey + "|check=" +
                               std::string(to_string(sweep.check)) +
                               "|seed=" + std::to_string(c.seed) +
                               "|budget=" +
                               std::to_string(sweep.sample_budget);
        // Algorithm checks bind eps (kkss) into the verdict identity, so a
        // retargeted sweep invalidates exactly its own records.
        if (is_algorithm(sweep.check)) {
          hash_src += "|eps=" + std::to_string(sweep.eps_num) + "/" +
                      std::to_string(sweep.eps_den);
        }
        c.inputs_hash = fnv1a64(hash_src);
        c.deps = {build};
        push(std::move(c));
        continue;
      }

      const std::size_t slot = x.num_point_slots++;
      std::size_t solve_idx[2];
      std::uint64_t solve_hash[2];
      for (int b = 0; b < 2; ++b) {
        const bool yes = b == 0;
        ExpandedJob s;
        s.stage = yes ? Stage::kSolveYes : Stage::kSolveNo;
        s.id = prefix + std::string(stage_name(s.stage));
        s.check = sweep.check;
        s.point = p;
        s.seed = hash_mix(spec.seed, sweep_hash, pi, yes ? 1 : 2);
        s.trials = sweep.trials;
        s.gadget_idx = x.jobs[build].gadget_idx;
        s.point_slot = slot;
        s.inputs_hash = fnv1a64(
            gkey + "|stage=" + std::string(stage_name(s.stage)) +
            "|trials=" + std::to_string(sweep.trials) +
            "|seed=" + std::to_string(s.seed) +
            "|density=" + (yes ? "0.3" : "0.4") +
            "|solver=" + std::string(maxis::kSolverVersion));
        solve_hash[b] = s.inputs_hash;
        s.deps = {build};
        solve_idx[b] = push(std::move(s));
      }

      ExpandedJob c;
      c.id = prefix + "check";
      c.stage = Stage::kCheck;
      c.check = sweep.check;
      c.point = p;
      c.point_slot = slot;
      c.gadget_idx = x.jobs[build].gadget_idx;
      // Chaining the solve hashes makes any solve-input change (seed,
      // trials, density, solver) invalidate the recorded verdict too.
      c.inputs_hash = fnv1a64(gkey + "|check=" +
                              std::string(to_string(sweep.check)) +
                              "|solve-yes=" +
                              ContentCache::hex_key(solve_hash[0]) +
                              "|solve-no=" +
                              ContentCache::hex_key(solve_hash[1]));
      c.deps = {solve_idx[0], solve_idx[1]};
      push(std::move(c));
    }
  }
  return x;
}

/// Cache payload for a check verdict: "k=v;k=v;..." over the outcome
/// fields, integer-valued so the round trip is exact.
std::string outcome_payload(CheckKind kind, const PointOutcome& o) {
  std::ostringstream os;
  if (is_claim(kind)) {
    os << "yes_opt=" << o.yes_opt << ";no_opt=" << o.no_opt
       << ";bound_yes=" << o.bound_yes << ";bound_no=" << o.bound_no;
  } else if (is_algorithm(kind)) {
    os << "alg_weight=" << o.alg_weight << ";opt=" << o.opt
       << ";bound_no=" << o.bound_no << ";rounds=" << o.rounds
       << ";round_bound=" << o.round_bound << ";bits=" << o.bits
       << ";checked=" << o.checked << ";nodes=" << o.nodes
       << ";edges=" << o.edges;
  } else {
    os << "checked=" << o.checked << ";min_matching=" << o.min_matching
       << ";max_shared=" << o.max_shared;
  }
  os << ";holds=" << (o.holds ? 1 : 0);
  return os.str();
}

std::int64_t parse_i64(std::string_view s, std::string_view what) {
  errno = 0;
  char* end = nullptr;
  const std::string buf(s);
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  CLB_EXPECT(end == buf.c_str() + buf.size() && !buf.empty() && errno == 0,
             std::string("campaign: malformed integer in ") +
                 std::string(what));
  return static_cast<std::int64_t>(v);
}

PointOutcome parse_outcome_payload(const std::string& payload) {
  PointOutcome o;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t semi = payload.find(';', pos);
    if (semi == std::string::npos) semi = payload.size();
    const std::string_view field(payload.data() + pos, semi - pos);
    const std::size_t eq = field.find('=');
    CLB_EXPECT(eq != std::string_view::npos,
               "campaign: malformed verdict payload");
    const std::string_view key = field.substr(0, eq);
    const std::int64_t v = parse_i64(field.substr(eq + 1), "verdict payload");
    if (key == "checked") {
      o.checked = static_cast<std::uint64_t>(v);
    } else if (key == "min_matching") {
      o.min_matching = static_cast<std::uint64_t>(v);
    } else if (key == "max_shared") {
      o.max_shared = static_cast<std::uint64_t>(v);
    } else if (key == "yes_opt") {
      o.yes_opt = v;
    } else if (key == "no_opt") {
      o.no_opt = v;
    } else if (key == "bound_yes") {
      o.bound_yes = v;
    } else if (key == "bound_no") {
      o.bound_no = v;
    } else if (key == "alg_weight") {
      o.alg_weight = v;
    } else if (key == "opt") {
      o.opt = v;
    } else if (key == "rounds") {
      o.rounds = static_cast<std::uint64_t>(v);
    } else if (key == "round_bound") {
      o.round_bound = static_cast<std::uint64_t>(v);
    } else if (key == "bits") {
      o.bits = static_cast<std::uint64_t>(v);
    } else if (key == "nodes") {
      o.nodes = static_cast<std::uint64_t>(v);
    } else if (key == "edges") {
      o.edges = static_cast<std::uint64_t>(v);
    } else if (key == "holds") {
      o.holds = v != 0;
    } else {
      throw InvariantError("campaign: unknown verdict payload key");
    }
    pos = semi + 1;
  }
  return o;
}

std::uint64_t parse_hex(const std::string& s, std::string_view what) {
  CLB_EXPECT(!s.empty() && s.size() <= 16,
             std::string("campaign: bad hex hash in ") + std::string(what));
  std::uint64_t v = 0;
  for (const char c : s) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = c - 'A' + 10;
    } else {
      throw InvariantError(std::string("campaign: bad hex hash in ") +
                           std::string(what));
    }
    v = v * 16 + static_cast<std::uint64_t>(d);
  }
  return v;
}

}  // namespace

std::optional<ChaosConfig> chaos_from_env() {
  constexpr std::string_view kPrefix = "CLB_CHAOS_";
  constexpr std::string_view kKill = "CLB_CHAOS_KILL_AFTER_JOBS";
  constexpr std::string_view kPoison = "CLB_CHAOS_POISON";
  std::optional<ChaosConfig> c;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (!entry.starts_with(kPrefix)) continue;
    const std::size_t eq = entry.find('=');
    const std::string_view name = entry.substr(0, eq);
    const std::string value(
        eq == std::string_view::npos ? "" : entry.substr(eq + 1));
    if (!c.has_value()) c.emplace();
    if (name == kKill) {
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      CLB_EXPECT(!value.empty() && value[0] != '-' && *end == '\0' &&
                     errno == 0 && v <= INT64_MAX,
                 "chaos: malformed CLB_CHAOS_KILL_AFTER_JOBS");
      c->kill_after_jobs = static_cast<std::int64_t>(v);
    } else if (name == kPoison) {
      c->poison_substring = value;
    } else {
      throw InvariantError("chaos: unknown variable " + std::string(name) +
                           " (known: CLB_CHAOS_KILL_AFTER_JOBS, "
                           "CLB_CHAOS_POISON)");
    }
  }
  return c;
}

const JobRecord* CampaignResult::find(std::string_view id) const {
  for (const JobRecord& r : records) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

CampaignResult run_campaign(const CampaignSpec& spec, const RunOptions& opts,
                            const std::map<std::string, JobRecord>* prior) {
  CLB_EXPECT(opts.threads >= 1, "campaign: threads must be >= 1");
  const auto run_start = std::chrono::steady_clock::now();

  Expansion x = expand(spec);
  const std::size_t n = x.jobs.size();

  // ---- Resume-mode resolution ------------------------------------------
  // A prior record counts only when its (id, inputs_hash, stage) all match
  // the expanded job — so a spec/seed change silently invalidates exactly
  // the affected jobs and nothing else.
  std::vector<Mode> mode(n, Mode::kRun);
  std::vector<const JobRecord*> carried(n, nullptr);
  const auto match = [&](const ExpandedJob& e) -> const JobRecord* {
    if (prior == nullptr) return nullptr;
    const auto it = prior->find(e.id);
    if (it == prior->end()) return nullptr;
    const JobRecord& r = it->second;
    if (r.inputs_hash != e.inputs_hash) return nullptr;
    if (r.stage != stage_name(e.stage)) return nullptr;
    if (r.verdict.empty()) return nullptr;
    // Fault verdicts and deadline-degraded outcomes are recorded so the
    // manifest tells the truth, but never honored on resume — the job
    // re-runs with whatever budget/luck the new run has.
    if (r.verdict == "quarantined" || r.verdict == "blocked") return nullptr;
    if (r.outcome.approximate) return nullptr;
    return &r;
  };

  // Pass 1: checks skip iff recorded.
  for (std::size_t i = 0; i < n; ++i) {
    if (x.jobs[i].stage != Stage::kCheck) continue;
    carried[i] = match(x.jobs[i]);
    mode[i] = carried[i] != nullptr ? Mode::kSkip : Mode::kRun;
  }
  // Pass 2: a recorded solve skips with its check, otherwise replays (its
  // recorded OPT feeds the re-run check without branch-and-bound).
  std::vector<std::size_t> check_of(n, kNone);
  for (std::size_t i = 0; i < n; ++i) {
    if (x.jobs[i].stage == Stage::kCheck && is_claim(x.jobs[i].check)) {
      for (const std::size_t d : x.jobs[i].deps) check_of[d] = i;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Stage st = x.jobs[i].stage;
    if (st != Stage::kSolveYes && st != Stage::kSolveNo) continue;
    carried[i] = match(x.jobs[i]);
    if (carried[i] == nullptr) {
      mode[i] = Mode::kRun;
    } else if (check_of[i] != kNone && mode[check_of[i]] == Mode::kSkip) {
      mode[i] = Mode::kSkip;
    } else {
      mode[i] = Mode::kReplay;
    }
  }
  // Pass 3: a build must run when any dependent actually needs the graph
  // (a running solve, or a running property check); otherwise it skips if
  // recorded and runs (cheaply, usually a disk hit) just to produce its
  // record if not.
  std::vector<std::uint8_t> graph_needed(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const ExpandedJob& e = x.jobs[i];
    const bool needs_graph =
        (e.stage == Stage::kSolveYes || e.stage == Stage::kSolveNo)
            ? mode[i] == Mode::kRun
            : (e.stage == Stage::kCheck && !is_claim(e.check) &&
               mode[i] == Mode::kRun);
    if (!needs_graph) continue;
    for (const std::size_t d : e.deps) {
      if (x.jobs[d].stage == Stage::kBuild) graph_needed[d] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (x.jobs[i].stage != Stage::kBuild) continue;
    carried[i] = match(x.jobs[i]);
    if (graph_needed[i] != 0) {
      mode[i] = Mode::kRun;
    } else {
      mode[i] = carried[i] != nullptr ? Mode::kSkip : Mode::kRun;
    }
  }

  // ---- Runtime state ----------------------------------------------------
  ContentCache cache(opts.cache_dir);
  // A build job that hits the gadget cache records its counts from the
  // payload header and leaves `payload` for dependents; the full graph is
  // rehydrated lazily (once) only if a dependent misses its own cache —
  // a fully warm run never parses a graph body.
  struct GadgetSlot {
    std::once_flag once;
    std::optional<lb::LinearConstruction> c;
    std::string payload;
  };
  std::vector<GadgetSlot> gadgets(x.gadget_points.size());
  const auto ensure_built = [&](std::size_t g) -> const lb::LinearConstruction& {
    GadgetSlot& s = gadgets[g];
    std::call_once(s.once, [&] {
      if (!s.c.has_value()) {
        s.c.emplace(rehydrate_gadget(x.gadget_points[g], s.payload));
      }
    });
    return *s.c;
  };
  struct Slot {
    std::int64_t yes = -1;
    std::int64_t no = -1;
    bool yes_approx = false;
    bool no_approx = false;
  };
  std::vector<Slot> slots(x.num_point_slots);
  std::vector<std::optional<JobRecord>> out(n);
  // Fault-domain state. `poisoned[i]` marks a quarantined or blocked job;
  // dependents read it before running. Plain bytes are safe: the scheduler
  // orders every dependency completion before its dependent starts
  // (deps_left_ acq_rel in scheduler.cpp).
  std::vector<std::uint8_t> poisoned(n, 0);
  const std::string poison =
      opts.chaos.has_value() ? opts.chaos->poison_substring : std::string();
  const std::int64_t kill_after =
      opts.chaos.has_value() ? opts.chaos->kill_after_jobs : -1;
  std::atomic<std::int64_t> jobs_finished{0};

  obs::Counter* m_exec = nullptr;
  obs::Counter* m_replay = nullptr;
  obs::Counter* m_holds = nullptr;
  obs::Counter* m_violated = nullptr;
  obs::Counter* m_quarantined = nullptr;
  obs::Counter* m_blocked = nullptr;
  obs::Histogram* m_wall = nullptr;
  if (opts.metrics != nullptr) {
    opts.metrics->ensure_shards(opts.threads);
    m_exec = &opts.metrics->counter("campaign.jobs.executed");
    m_replay = &opts.metrics->counter("campaign.jobs.replayed");
    m_holds = &opts.metrics->counter("campaign.checks.holds");
    m_violated = &opts.metrics->counter("campaign.checks.violated");
    m_quarantined = &opts.metrics->counter("campaign.jobs.quarantined");
    m_blocked = &opts.metrics->counter("campaign.jobs.blocked");
    m_wall = &opts.metrics->histogram("campaign.job_wall_us",
                                      {100, 1000, 10000, 100000, 1000000});
  }

  const auto run_job = [&](std::size_t ei, std::size_t w) {
    const auto t0 = std::chrono::steady_clock::now();
    const ExpandedJob& e = x.jobs[ei];
    JobRecord rec;

    if (mode[ei] == Mode::kReplay) {
      rec = *carried[ei];
      rec.resumed = true;
      rec.cache_hit = false;
      Slot& s = slots[e.point_slot];
      (e.stage == Stage::kSolveYes ? s.yes : s.no) = rec.outcome.opt;
      if (m_replay != nullptr) m_replay->inc(w);
    } else {
      rec.id = e.id;
      rec.inputs_hash = e.inputs_hash;
      rec.stage = std::string(stage_name(e.stage));
      bool blocked = false;
      for (const std::size_t d : e.deps) {
        if (poisoned[d] != 0) blocked = true;
      }
      if (blocked) {
        // A quarantined dependency means this job's inputs don't exist;
        // running it would only fail confusingly. One poison job degrades
        // its cone of dependents, not the campaign.
        rec.verdict = "blocked";
        rec.diagnostic = "dependency quarantined or blocked";
        poisoned[ei] = 1;
        if (m_blocked != nullptr) m_blocked->inc(w);
      } else {
        JobRecord work = rec;
        try {
          if (!poison.empty() && e.id.find(poison) != std::string::npos) {
            throw InvariantError("chaos: poisoned job");
          }
          switch (e.stage) {
            case Stage::kBuild: {
              auto payload = cache.load("gadget", e.inputs_hash);
              work.cache_hit = payload.has_value();
              GadgetSlot& slot = gadgets[e.gadget_idx];
              if (payload.has_value()) {
                const GadgetHeader h = parse_gadget_header(*payload);
                work.outcome.nodes = h.nodes;
                work.outcome.edges = h.edges;
                work.outcome.cut = h.cut;
                slot.payload = std::move(*payload);
              } else {
                lb::LinearConstruction c =
                    build_gadget(e.point, std::string());
                cache.store("gadget", e.inputs_hash, serialize_gadget(c));
                work.outcome = build_outcome(c);
                slot.c.emplace(std::move(c));
              }
              work.verdict = "built";
              break;
            }
            case Stage::kSolveYes:
            case Stage::kSolveNo: {
              const bool yes = e.stage == Stage::kSolveYes;
              Slot& s = slots[e.point_slot];
              const auto payload = cache.load("opt", e.inputs_hash);
              if (payload.has_value()) {
                work.outcome.opt = parse_i64(*payload, "opt cache slot");
                work.cache_hit = true;
              } else {
                std::optional<DeadlineToken> ddl;
                if (opts.job_deadline_ms > 0) {
                  ddl.emplace(
                      std::chrono::milliseconds(opts.job_deadline_ms));
                }
                const SolveResult sr =
                    solve_branch(ensure_built(e.gadget_idx), yes, e.trials,
                                 e.seed, ddl.has_value() ? &*ddl : nullptr);
                work.outcome.opt = sr.opt;
                work.outcome.approximate = sr.approximate;
                // An approximate OPT is run-local: caching one would let a
                // tight deadline silently weaken every later campaign.
                if (!sr.approximate) {
                  cache.store("opt", e.inputs_hash, std::to_string(sr.opt));
                }
              }
              work.verdict = "opt";
              (yes ? s.yes : s.no) = work.outcome.opt;
              (yes ? s.yes_approx : s.no_approx) = work.outcome.approximate;
              break;
            }
            case Stage::kCheck: {
              const auto payload = cache.load("verdict", e.inputs_hash);
              if (payload.has_value()) {
                work.outcome = parse_outcome_payload(*payload);
                work.cache_hit = true;
              } else {
                if (is_claim(e.check)) {
                  const Slot& s = slots[e.point_slot];
                  work.outcome = check_claim(e.check, e.point, s.yes, s.no);
                  work.outcome.approximate = s.yes_approx || s.no_approx;
                } else if (is_algorithm(e.check)) {
                  work.outcome =
                      check_algorithm(e.check, ensure_built(e.gadget_idx),
                                      e.seed, e.eps_num, e.eps_den);
                } else {
                  work.outcome =
                      check_property(e.check, ensure_built(e.gadget_idx),
                                     e.seed, e.sample_budget);
                }
                if (!work.outcome.approximate) {
                  cache.store("verdict", e.inputs_hash,
                              outcome_payload(e.check, work.outcome));
                }
              }
              work.verdict = work.outcome.holds ? "holds" : "violated";
              break;
            }
          }
          rec = std::move(work);
          if (m_exec != nullptr) m_exec->inc(w);
          if (e.stage == Stage::kCheck && opts.metrics != nullptr) {
            (rec.outcome.holds ? m_holds : m_violated)->inc(w);
          }
        } catch (const std::exception& ex) {
          // A job is a pure function of its inputs, so a retry would throw
          // again: quarantine on the first throw. `rec` never saw the
          // half-filled `work`, so no partial outcome reaches the manifest.
          rec.verdict = "quarantined";
          rec.diagnostic = ex.what();
          poisoned[ei] = 1;
          if (m_quarantined != nullptr) m_quarantined->inc(w);
        }
        if (kill_after >= 0 &&
            jobs_finished.fetch_add(1, std::memory_order_acq_rel) + 1 >=
                kill_after) {
          // Simulated SIGKILL: no unwinding, no destructors, no manifest
          // write — whatever a cache store was mid-way through stays torn
          // on disk, exactly the state a resume must cope with.
          std::_Exit(137);
        }
      }
    }

    const auto dt = std::chrono::steady_clock::now() - t0;
    rec.wall_ms =
        std::chrono::duration<double, std::milli>(dt).count();
    if (m_wall != nullptr) {
      m_wall->observe(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(dt)
                  .count()),
          w);
    }
    out[ei] = std::move(rec);
  };

  // ---- Schedule + run ---------------------------------------------------
  WorkStealingScheduler sched(opts.threads);
  std::vector<std::size_t> sched_id(n, kNone);
  for (std::size_t i = 0; i < n; ++i) {
    if (mode[i] == Mode::kSkip) continue;
    sched_id[i] = sched.add_job([&run_job, i](std::size_t w) {
      run_job(i, w);
    });
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (sched_id[i] == kNone) continue;
    for (const std::size_t d : x.jobs[i].deps) {
      if (sched_id[d] != kNone) {
        sched.add_dependency(sched_id[i], sched_id[d]);
      }
    }
  }
  sched.run(opts.max_jobs);

  // ---- Collect ----------------------------------------------------------
  CampaignResult res;
  res.campaign = spec.name;
  res.spec_hash = spec.content_hash();
  res.jobs_total = n;
  res.threads = opts.threads;
  for (std::size_t i = 0; i < n; ++i) {
    if (mode[i] == Mode::kSkip) {
      JobRecord r = *carried[i];
      r.resumed = true;
      r.cache_hit = false;
      r.wall_ms = 0;
      res.records.push_back(std::move(r));
      ++res.jobs_resumed;
    } else if (out[i].has_value()) {
      if (mode[i] == Mode::kReplay) {
        ++res.jobs_resumed;
      } else {
        ++res.jobs_run;
      }
      res.records.push_back(std::move(*out[i]));
    }
    // else: abandoned by the budget — no record, exactly like a kill.
  }
  std::sort(res.records.begin(), res.records.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  res.complete = res.records.size() == res.jobs_total;
  for (const JobRecord& r : res.records) {
    if (r.verdict == "quarantined") ++res.jobs_quarantined;
    if (r.verdict == "blocked") ++res.jobs_blocked;
    if (r.stage != "check") continue;
    ++res.checks;
    if (r.verdict == "holds") ++res.checks_holding;
  }
  // A degraded campaign never claims success: quarantined or blocked jobs
  // veto all_hold even when every check that did run holds.
  res.all_hold = res.complete && res.checks_holding == res.checks &&
                 res.jobs_quarantined == 0 && res.jobs_blocked == 0;
  res.cache = cache.stats();
  res.total_wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - run_start)
                          .count();
  return res;
}

void write_manifest(std::ostream& os, const CampaignResult& result,
                    const ManifestWriteOptions& opts) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("clb_campaign_manifest", std::uint64_t{1});
  w.kv("campaign", result.campaign);
  w.kv("spec_hash", ContentCache::hex_key(result.spec_hash));
  w.kv("jobs_total", static_cast<std::uint64_t>(result.jobs_total));
  w.kv("complete", result.complete);
  w.key("summary");
  w.begin_object();
  w.kv("jobs_recorded", static_cast<std::uint64_t>(result.records.size()));
  w.kv("checks", static_cast<std::uint64_t>(result.checks));
  w.kv("checks_holding", static_cast<std::uint64_t>(result.checks_holding));
  w.kv("quarantined", static_cast<std::uint64_t>(result.jobs_quarantined));
  w.kv("blocked", static_cast<std::uint64_t>(result.jobs_blocked));
  w.kv("all_hold", result.all_hold);
  w.end_object();
  w.key("jobs");
  w.begin_array();
  for (const JobRecord& r : result.records) {
    w.begin_object();
    w.kv("id", r.id);
    w.kv("inputs_hash", ContentCache::hex_key(r.inputs_hash));
    w.kv("stage", r.stage);
    w.kv("verdict", r.verdict);
    w.key("data");
    w.begin_object();
    const PointOutcome& o = r.outcome;
    if (r.stage == "build") {
      w.kv("nodes", o.nodes);
      w.kv("edges", o.edges);
      w.kv("cut", o.cut);
    } else if (r.stage == "solve-yes" || r.stage == "solve-no") {
      w.kv("opt", o.opt);
      if (o.approximate) w.kv("approximate", true);
    } else if (o.alg_weight >= 0) {
      // Algorithm-sweep check: the gap-sandwich record. alg_weight >= 0 is
      // the marker (claim/property checks never set it), so pre-existing
      // manifests keep their exact field set.
      w.kv("checked", o.checked);
      w.kv("alg_weight", o.alg_weight);
      w.kv("opt", o.opt);
      w.kv("bound_no", o.bound_no);
      w.kv("rounds", o.rounds);
      w.kv("round_bound", o.round_bound);
      w.kv("bits", o.bits);
      w.kv("nodes", o.nodes);
      w.kv("edges", o.edges);
    } else {
      w.kv("checked", o.checked);
      w.kv("min_matching", o.min_matching);
      w.kv("max_shared", o.max_shared);
      w.kv("yes_opt", o.yes_opt);
      w.kv("no_opt", o.no_opt);
      w.kv("bound_yes", o.bound_yes);
      w.kv("bound_no", o.bound_no);
      if (o.approximate) w.kv("approximate", true);
    }
    w.end_object();
    if (opts.include_volatile) {
      w.kv("wall_ms", r.wall_ms);
      w.kv("cache_hit", r.cache_hit);
      w.kv("resumed", r.resumed);
      if (!r.diagnostic.empty()) w.kv("diagnostic", r.diagnostic);
    }
    w.end_object();
  }
  w.end_array();
  if (opts.include_volatile) {
    w.key("volatile");
    w.begin_object();
    w.kv("threads", static_cast<std::uint64_t>(result.threads));
    w.kv("jobs_run", static_cast<std::uint64_t>(result.jobs_run));
    w.kv("jobs_resumed", static_cast<std::uint64_t>(result.jobs_resumed));
    w.kv("wall_ms", result.total_wall_ms);
    w.key("cache");
    w.begin_object();
    w.kv("mem_hits", result.cache.mem_hits);
    w.kv("disk_hits", result.cache.disk_hits);
    w.kv("misses", result.cache.misses);
    w.kv("writes", result.cache.writes);
    w.kv("invalid", result.cache.invalid);
    w.end_object();
    if (opts.metrics != nullptr) {
      w.key("metrics");
      obs::append_metrics(w, *opts.metrics, "campaign.");
    }
    w.end_object();
  }
  w.end_object();
  os << "\n";
}

ParsedManifest read_manifest(std::string_view json_text) {
  const JsonValue doc = parse_json(json_text);
  CLB_EXPECT(doc.is_object(), "manifest: not a JSON object");
  const JsonValue* magic = doc.find("clb_campaign_manifest");
  CLB_EXPECT(magic != nullptr && magic->as_u64() == 1,
             "manifest: not a clb campaign manifest");

  ParsedManifest m;
  m.campaign = doc.at("campaign").as_string();
  m.spec_hash = parse_hex(doc.at("spec_hash").as_string(), "spec_hash");
  m.jobs_total = doc.at("jobs_total").as_u64();
  m.complete = doc.at("complete").as_bool();
  m.all_hold = doc.at("summary").at("all_hold").as_bool();

  for (const JsonValue& j : doc.at("jobs").as_array()) {
    JobRecord r;
    r.id = j.at("id").as_string();
    r.inputs_hash = parse_hex(j.at("inputs_hash").as_string(), "inputs_hash");
    r.stage = j.at("stage").as_string();
    r.verdict = j.at("verdict").as_string();
    const JsonValue& d = j.at("data");
    PointOutcome& o = r.outcome;
    if (const JsonValue* v = d.find("nodes")) o.nodes = v->as_u64();
    if (const JsonValue* v = d.find("edges")) o.edges = v->as_u64();
    if (const JsonValue* v = d.find("cut")) o.cut = v->as_u64();
    if (const JsonValue* v = d.find("opt")) o.opt = v->as_i64();
    if (const JsonValue* v = d.find("checked")) o.checked = v->as_u64();
    if (const JsonValue* v = d.find("min_matching")) {
      o.min_matching = v->as_u64();
    }
    if (const JsonValue* v = d.find("max_shared")) o.max_shared = v->as_u64();
    if (const JsonValue* v = d.find("yes_opt")) o.yes_opt = v->as_i64();
    if (const JsonValue* v = d.find("no_opt")) o.no_opt = v->as_i64();
    if (const JsonValue* v = d.find("bound_yes")) o.bound_yes = v->as_i64();
    if (const JsonValue* v = d.find("bound_no")) o.bound_no = v->as_i64();
    if (const JsonValue* v = d.find("alg_weight")) o.alg_weight = v->as_i64();
    if (const JsonValue* v = d.find("rounds")) o.rounds = v->as_u64();
    if (const JsonValue* v = d.find("round_bound")) {
      o.round_bound = v->as_u64();
    }
    if (const JsonValue* v = d.find("bits")) o.bits = v->as_u64();
    if (const JsonValue* v = d.find("approximate")) {
      o.approximate = v->as_bool();
    }
    o.holds = r.verdict == "holds";
    if (const JsonValue* v = j.find("wall_ms")) r.wall_ms = v->as_double();
    if (const JsonValue* v = j.find("cache_hit")) r.cache_hit = v->as_bool();
    if (const JsonValue* v = j.find("resumed")) r.resumed = v->as_bool();
    if (const JsonValue* v = j.find("diagnostic")) {
      r.diagnostic = v->as_string();
    }
    if (r.verdict == "quarantined") ++m.jobs_quarantined;
    if (r.verdict == "blocked") ++m.jobs_blocked;
    CLB_EXPECT(m.records.emplace(r.id, std::move(r)).second,
               "manifest: duplicate job id");
  }
  return m;
}

}  // namespace congestlb::campaign
