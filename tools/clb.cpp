// clb — command-line front end for the congestlb library.
//
//   clb bounds <eps> <n>            Theorem 1/2 round bounds
//   clb gap <t> [ell] [alpha] [k]   gap predicate of the linear family
//   clb solve <graph-file> [--kernel=on|off] [--threads N]
//                                   exact MaxIS + min VC of an edge-list file
//                                   through the solver engine (docs/SOLVER.md)
//   clb simulate <t> <seed> <yes|no> run the Theorem-5 reduction once
//   clb trace <t> <seed> <yes|no> [chrome.json] [canonical.txt]
//                                   run the reduction traced; write a Chrome
//                                   trace_event file (chrome://tracing or
//                                   ui.perfetto.dev)
//   clb protocols <k> <t>           disjointness protocol costs vs CKS bound
//   clb campaign run|resume|status [paper|smoke|<spec.json>] [options]
//                                   execute a sweep campaign (docs/CAMPAIGN.md);
//                                   resume re-runs only missing jobs of the
//                                   manifest, status reads the manifest back
//   clb version                     print the library version
//   clb help                        list every subcommand
//
// Graph files use the graph/io.hpp edge-list format:
//   n <nodes> / w <id> <weight> / e <u> <v>

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "comm/lower_bound.hpp"
#include "comm/protocols.hpp"
#include "congest/algorithms/universal_maxis.hpp"
#include "graph/io.hpp"
#include "lowerbound/framework.hpp"
#include "lowerbound/structured_solver.hpp"
#include "maxis/branch_and_bound.hpp"
#include "maxis/parallel_bnb.hpp"
#include "maxis/vertex_cover.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/reduction.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace clb = congestlb;

namespace {

void print_usage(std::ostream& os) {
  os << "usage:\n"
        "  clb bounds <eps> <n>\n"
        "  clb gap <t> [ell] [alpha] [k]\n"
        "  clb solve <graph-file> [--kernel=on|off] [--threads N]\n"
        "  clb simulate <t> <seed> <yes|no>\n"
        "  clb trace <t> <seed> <yes|no> [chrome.json] [canonical.txt]\n"
        "  clb protocols <k> <t>\n"
        "  clb campaign run|resume|status [paper|smoke|<spec.json>]\n"
        "      [--threads N] [--cache-dir DIR] [--manifest FILE]\n"
        "      [--max-jobs N] [--canonical] [--deadline-ms N]\n"
        "  clb version\n"
        "  clb help\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

// Strict numeric parsing. Bare strtoull/strtod silently accept exactly the
// inputs a CLI must reject: "7abc" (stops at the first bad char), "-3"
// (wraps to a huge unsigned), "1e999" and 2^64 (clamp via ERANGE), "" and
// " 7" (empty / leading space). The whole argument must be one in-range
// number or the command prints usage and exits 2.

std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0') return std::nullopt;
  return v;
}

std::optional<double> parse_double(const char* s) {
  if (s == nullptr || s[0] == '\0' ||
      std::isspace(static_cast<unsigned char>(s[0]))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0' || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> parse_yes_no(const char* s) {
  const std::string v(s);
  if (v == "yes") return true;
  if (v == "no") return false;
  return std::nullopt;
}

int bad_arg(const char* what, const char* got) {
  std::cerr << "invalid " << what << ": '" << got << "'\n";
  return usage();
}

int cmd_bounds(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto eps = parse_double(argv[0]);
  if (!eps) return bad_arg("eps", argv[0]);
  const auto n = parse_u64(argv[1]);
  if (!n) return bad_arg("n", argv[1]);
  clb::Table t({"theorem", "approximation", "players t", "CC bits", "cut",
                "rounds >="});
  if (*eps > 0 && *eps < 0.5) {
    const auto rb = clb::lb::theorem1_bound(*n, *eps);
    t.row("1", "1/2 + " + clb::fmt_double(*eps, 3),
          clb::lb::linear_players_for_epsilon(*eps),
          clb::fmt_double(rb.cc_bits, 0), rb.cut_edges,
          clb::fmt_double(rb.rounds, 6));
  }
  if (*eps > 0 && *eps < 0.25) {
    const auto rb = clb::lb::theorem2_bound(*n, *eps);
    t.row("2", "3/4 + " + clb::fmt_double(*eps, 3),
          clb::lb::quadratic_players_for_epsilon(*eps),
          clb::fmt_double(rb.cc_bits, 0), rb.cut_edges,
          clb::fmt_double(rb.rounds, 3));
  }
  if (t.num_rows() == 0) {
    std::cerr << "eps out of range: Theorem 1 needs (0, 1/2), Theorem 2 "
                 "(0, 1/4)\n";
    return 1;
  }
  t.print(std::cout);
  return 0;
}

int cmd_gap(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto t = parse_u64(argv[0]);
  if (!t) return bad_arg("players t", argv[0]);
  std::optional<std::uint64_t> ell, alpha, k;
  if (argc >= 3) {
    ell = parse_u64(argv[1]);
    if (!ell) return bad_arg("ell", argv[1]);
    alpha = parse_u64(argv[2]);
    if (!alpha) return bad_arg("alpha", argv[2]);
    if (argc >= 4) {
      k = parse_u64(argv[3]);
      if (!k) return bad_arg("k", argv[3]);
    }
  }
  clb::lb::GadgetParams p =
      ell.has_value()
          ? clb::lb::GadgetParams::from_l_alpha(
                *ell, *alpha,
                k.has_value() ? std::optional<std::size_t>(*k) : std::nullopt)
          : clb::lb::GadgetParams::for_linear_separation(*t);
  const clb::lb::LinearConstruction c(p, *t);
  clb::Table tbl({"field", "value"});
  tbl.row("players t", *t);
  tbl.row("ell / alpha / k", std::to_string(p.ell) + " / " +
                                 std::to_string(p.alpha) + " / " +
                                 std::to_string(p.k));
  tbl.row("code", p.code->name());
  tbl.row("nodes", c.num_nodes());
  tbl.row("edges", c.fixed_graph().num_edges());
  tbl.row("cut edges", c.cut_size());
  tbl.row("YES weight (Claim 3)", c.yes_weight());
  tbl.row("NO bound (Claim 5)", c.no_bound());
  tbl.row("separated", c.separated());
  tbl.row("hardness ratio", clb::fmt_double(c.hardness_ratio()));
  tbl.print(std::cout);
  return 0;
}

int cmd_solve(int argc, char** argv) {
  if (argc < 1) return usage();
  clb::maxis::EngineOptions eopts;
  const char* file = nullptr;
  for (int i = 0; i < argc; ++i) {
    const std::string a(argv[i]);
    if (a == "--kernel=on") {
      eopts.kernelize = true;
    } else if (a == "--kernel=off") {
      eopts.kernelize = false;
    } else if (a == "--threads") {
      if (i + 1 >= argc) return bad_arg("--threads", "(missing)");
      const auto n = parse_u64(argv[++i]);
      if (!n || *n == 0) return bad_arg("--threads", argv[i]);
      eopts.threads = *n;
    } else if (a.rfind("--", 0) == 0) {
      return bad_arg("solve option", argv[i]);
    } else if (file == nullptr) {
      file = argv[i];
    } else {
      return bad_arg("extra argument", argv[i]);
    }
  }
  if (file == nullptr) return usage();
  std::ifstream in(file);
  if (!in) {
    std::cerr << "cannot open " << file << "\n";
    return 1;
  }
  const clb::graph::Graph g = clb::graph::read_edge_list(in);
  const auto res = clb::maxis::solve_maxis(g, eopts);
  const auto vc = clb::maxis::solve_vertex_cover_exact(g);
  std::cout << "graph: " << g.num_nodes() << " nodes, " << g.num_edges()
            << " edges, total weight " << g.total_weight() << "\n";
  std::cout << "solver: " << clb::maxis::kSolverVersion << ", kernel "
            << (eopts.kernelize ? "on" : "off") << ", threads "
            << eopts.threads << "\n";
  std::cout << "kernel: " << res.kernel_nodes << " nodes kept, "
            << res.kernel.decisions() << " decided ("
            << res.kernel.isolated << " isolated, " << res.kernel.folded
            << " folded, " << res.kernel.degree1 << " degree-1, "
            << res.kernel.dominated << " dominated, "
            << res.kernel.simplicial << " simplicial, " << res.kernel.twins
            << " twins; " << res.kernel.passes << " passes)\n";
  std::cout << "search: " << res.components << " components, " << res.jobs
            << " jobs, " << res.search_nodes << " nodes\n";
  const auto& is = res.solution;
  std::cout << "max independent set: weight " << is.weight << ", nodes:";
  for (auto v : is.nodes) std::cout << ' ' << v;
  std::cout << "\nmin vertex cover: weight " << vc.weight << ", nodes:";
  for (auto v : vc.nodes) std::cout << ' ' << v;
  std::cout << "\n";
  return 0;
}

/// Shared Theorem-5 run for `simulate` and `trace`: instantiate the linear
/// construction for t players, draw the yes/no instance from `seed`, and run
/// the exact universal algorithm over the blackboard.
clb::sim::ReductionReport run_theorem5(std::size_t t, std::uint64_t seed,
                                       bool want_yes, clb::comm::Blackboard& board,
                                       const clb::lb::LinearConstruction& c,
                                       const clb::lb::GadgetParams& p,
                                       clb::congest::NetworkConfig cfg) {
  clb::Rng rng(seed);
  const auto inst =
      want_yes ? clb::comm::make_uniquely_intersecting(p.k, t, rng)
               : clb::comm::make_pairwise_disjoint(p.k, t, rng);
  cfg.bits_per_edge = clb::congest::universal_required_bits(
      c.num_nodes(), static_cast<clb::graph::Weight>(p.ell));
  cfg.max_rounds = 500'000;
  return clb::sim::run_linear_reduction(
      c, inst,
      clb::congest::universal_maxis_factory([](const clb::graph::Graph& g) {
        return clb::maxis::solve_exact(g).nodes;
      }),
      board, cfg);
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto t = parse_u64(argv[0]);
  if (!t) return bad_arg("players t", argv[0]);
  const auto seed = parse_u64(argv[1]);
  if (!seed) return bad_arg("seed", argv[1]);
  const auto want_yes = parse_yes_no(argv[2]);
  if (!want_yes) return bad_arg("branch (yes|no)", argv[2]);
  const auto p = clb::lb::GadgetParams::for_linear_separation(*t, 1);
  const clb::lb::LinearConstruction c(p, *t);
  clb::comm::Blackboard board(*t);
  const auto rep = run_theorem5(*t, *seed, *want_yes, board, c, p, {});
  clb::Table tbl({"field", "value"});
  tbl.row("n / t / cut", std::to_string(rep.n) + " / " + std::to_string(rep.t) +
                             " / " + std::to_string(rep.cut_edges));
  tbl.row("rounds", rep.rounds);
  tbl.row("blackboard bits", rep.blackboard_bits);
  tbl.row("blackboard bits written", rep.board_bits_written);
  tbl.row("board records written", rep.board_records_written);
  tbl.row("theorem-5 budget", rep.theorem5_budget);
  tbl.row("accounting ok", rep.accounting_ok);
  tbl.row("IS weight / YES threshold", std::to_string(rep.computed_weight) +
                                           " / " +
                                           std::to_string(rep.yes_weight));
  tbl.row("decision",
          rep.decided_disjoint ? "pairwise disjoint" : "uniquely intersecting");
  tbl.row("correct", rep.correct);
  tbl.print(std::cout);
  return rep.correct ? 0 : 1;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto t = parse_u64(argv[0]);
  if (!t) return bad_arg("players t", argv[0]);
  const auto seed = parse_u64(argv[1]);
  if (!seed) return bad_arg("seed", argv[1]);
  const auto want_yes = parse_yes_no(argv[2]);
  if (!want_yes) return bad_arg("branch (yes|no)", argv[2]);
  const char* chrome_path = argc >= 4 ? argv[3] : "clb_trace.json";
  const char* canonical_path = argc >= 5 ? argv[4] : nullptr;
  if (!clb::obs::trace_compiled_in()) {
    std::cerr << "clb trace: the tracer is compiled out "
                 "(built with -DCONGESTLB_TRACE=OFF)\n";
    return 1;
  }

  const auto p = clb::lb::GadgetParams::for_linear_separation(*t, 1);
  const clb::lb::LinearConstruction c(p, *t);
  clb::comm::Blackboard board(*t);
  clb::obs::Tracer tracer({.capacity = std::size_t{1} << 20});
  clb::obs::MetricsRegistry metrics;
  clb::congest::NetworkConfig cfg;
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  const auto rep = run_theorem5(*t, *seed, *want_yes, board, c, p, cfg);

  clb::obs::ChromeTraceOptions opt;
  for (const auto& [u, v] : c.cut_edges()) {
    opt.cut_edges.emplace_back(static_cast<std::uint32_t>(u),
                               static_cast<std::uint32_t>(v));
  }
  const auto events = tracer.events();
  std::ofstream chrome(chrome_path);
  if (!chrome) {
    std::cerr << "cannot write " << chrome_path << "\n";
    return 1;
  }
  clb::obs::write_chrome_trace(chrome, events, opt);
  if (canonical_path != nullptr) {
    std::ofstream canon(canonical_path);
    if (!canon) {
      std::cerr << "cannot write " << canonical_path << "\n";
      return 1;
    }
    clb::obs::write_canonical(canon, events);
  }

  clb::Table tbl({"field", "value"});
  tbl.row("n / t / cut", std::to_string(rep.n) + " / " + std::to_string(rep.t) +
                             " / " + std::to_string(rep.cut_edges));
  tbl.row("rounds", rep.rounds);
  tbl.row("events recorded", tracer.recorded());
  tbl.row("events dropped", tracer.dropped());
  tbl.row("blackboard bits", rep.blackboard_bits);
  tbl.row("cut accounting exact", rep.cut_accounting_exact);
  tbl.row("chrome trace", chrome_path);
  if (canonical_path != nullptr) tbl.row("canonical trace", canonical_path);
  tbl.row("correct", rep.correct);
  tbl.print(std::cout);
  return rep.correct ? 0 : 1;
}

int cmd_protocols(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto k = parse_u64(argv[0]);
  if (!k) return bad_arg("k", argv[0]);
  const auto t = parse_u64(argv[1]);
  if (!t) return bad_arg("players t", argv[1]);
  clb::Rng rng(1);
  clb::Table tbl({"protocol", "bits (worst of both branches)", "answer ok"});
  for (const auto& proto : clb::comm::all_reference_protocols()) {
    std::size_t cost = 0;
    bool ok = true;
    for (bool intersecting : {true, false}) {
      const auto inst =
          intersecting
              ? clb::comm::make_uniquely_intersecting(*k, *t, rng, 0.3)
              : clb::comm::make_pairwise_disjoint(*k, *t, rng, 0.3);
      clb::comm::Blackboard b(*t);
      ok = ok && proto->run(inst, b) == !intersecting;
      cost = std::max(cost, b.total_bits());
    }
    tbl.row(proto->name(), cost, ok);
  }
  tbl.row("CKS lower bound",
          clb::fmt_double(clb::comm::cks_lower_bound_bits(*k, *t), 1), "-");
  tbl.print(std::cout);
  return 0;
}

std::optional<clb::campaign::CampaignSpec> load_spec(const std::string& arg) {
  if (const auto builtin = clb::campaign::builtin_campaign(arg)) {
    return builtin;
  }
  std::ifstream in(arg);
  if (!in) {
    std::cerr << "cannot open campaign spec '" << arg
              << "' (not a built-in name or a readable file)\n";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return clb::campaign::parse_campaign_spec_text(text.str());
}

/// Manifest write by tmp + rename, so a kill leaves either the previous
/// manifest or the new one, never a torn one. A failed write or rename
/// removes its tmp.
bool write_manifest_atomic(const std::string& path,
                           const clb::campaign::CampaignResult& result,
                           const clb::campaign::ManifestWriteOptions& wopts) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      clb::campaign::write_manifest(out, result, wopts);
      out.close();
      ok = !out.fail();
    }
  }
  if (ok) {
    fs::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) fs::remove(tmp, ec);
  return ok;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string action = argv[0];
  if (action != "run" && action != "resume" && action != "status") {
    return bad_arg("campaign action (run|resume|status)", argv[0]);
  }

  std::string spec_arg = "paper";
  std::string manifest_path = "campaign.json";
  std::string cache_dir = ".clb-cache";
  std::uint64_t threads = 1;
  std::uint64_t max_jobs = 0;
  std::uint64_t deadline_ms = 0;
  bool canonical = false;
  bool have_positional = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--threads") {
      const auto v = parse_u64(value());
      if (!v || *v == 0) return bad_arg("--threads", argv[i]);
      threads = *v;
    } else if (a == "--max-jobs") {
      const auto v = parse_u64(value());
      if (!v) return bad_arg("--max-jobs", argv[i]);
      max_jobs = *v;
    } else if (a == "--deadline-ms") {
      const auto v = parse_u64(value());
      if (!v) return bad_arg("--deadline-ms", argv[i]);
      deadline_ms = *v;
    } else if (a == "--cache-dir") {
      const char* v = value();
      if (v == nullptr) return bad_arg("--cache-dir", a.c_str());
      cache_dir = v;
    } else if (a == "--manifest") {
      const char* v = value();
      if (v == nullptr) return bad_arg("--manifest", a.c_str());
      manifest_path = v;
    } else if (a == "--canonical") {
      canonical = true;
    } else if (!a.empty() && a[0] == '-') {
      return bad_arg("campaign option", argv[i]);
    } else if (!have_positional) {
      spec_arg = a;
      have_positional = true;
    } else {
      return bad_arg("campaign argument", argv[i]);
    }
  }

  if (action == "status") {
    std::ifstream in(manifest_path);
    if (!in) {
      std::cerr << "cannot open manifest '" << manifest_path << "'\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto m = clb::campaign::read_manifest(text.str());
    std::size_t checks = 0, holding = 0, pending_hint = 0;
    for (const auto& [id, rec] : m.records) {
      (void)id;
      if (rec.stage != "check") continue;
      ++checks;
      if (rec.verdict == "holds") ++holding;
    }
    pending_hint = m.jobs_total - m.records.size();
    clb::Table tbl({"field", "value"});
    tbl.row("campaign", m.campaign);
    tbl.row("spec hash", clb::campaign::ContentCache::hex_key(m.spec_hash));
    tbl.row("jobs recorded", std::to_string(m.records.size()) + " / " +
                                 std::to_string(m.jobs_total));
    tbl.row("jobs missing", pending_hint);
    tbl.row("checks holding",
            std::to_string(holding) + " / " + std::to_string(checks));
    tbl.row("quarantined", m.jobs_quarantined);
    tbl.row("blocked", m.jobs_blocked);
    tbl.row("complete", m.complete);
    tbl.row("all hold", m.all_hold);
    tbl.print(std::cout);
    for (const auto& [id, rec] : m.records) {
      if (rec.verdict != "quarantined" && rec.verdict != "blocked") continue;
      std::cout << "  " << rec.verdict << " " << id;
      if (!rec.diagnostic.empty()) std::cout << ": " << rec.diagnostic;
      std::cout << "\n";
    }
    // Quarantined or blocked jobs fail status even on a "complete" run: a
    // degraded campaign must not pass a CI gate that greps exit codes.
    return m.complete && m.all_hold && m.jobs_quarantined == 0 &&
                   m.jobs_blocked == 0
               ? 0
               : 1;
  }

  const auto spec = load_spec(spec_arg);
  if (!spec) return 1;

  clb::obs::MetricsRegistry metrics;
  clb::campaign::RunOptions opts;
  opts.threads = static_cast<std::size_t>(threads);
  opts.cache_dir = cache_dir;
  opts.max_jobs = static_cast<std::size_t>(max_jobs);
  opts.metrics = &metrics;
  opts.job_deadline_ms = deadline_ms;
  // The CLB_CHAOS_* environment contract (campaign/campaign.hpp) is how
  // the chaos harness attacks a live run: poison jobs and a simulated
  // SIGKILL after N jobs.
  opts.chaos = clb::campaign::chaos_from_env();

  std::map<std::string, clb::campaign::JobRecord> prior;
  bool resuming = false;
  if (action == "resume") {
    std::ifstream in(manifest_path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      const auto m = clb::campaign::read_manifest(text.str());
      if (m.spec_hash != spec->content_hash()) {
        std::cerr << "note: manifest '" << manifest_path
                  << "' was written by a different spec; jobs whose inputs "
                     "changed will re-run\n";
      }
      prior = m.records;
      resuming = true;
    } else {
      std::cerr << "note: no manifest at '" << manifest_path
                << "', running from scratch\n";
    }
  }

  const auto result = clb::campaign::run_campaign(
      *spec, opts, resuming ? &prior : nullptr);

  clb::campaign::ManifestWriteOptions wopts;
  wopts.include_volatile = !canonical;
  wopts.metrics = canonical ? nullptr : &metrics;
  if (!write_manifest_atomic(manifest_path, result, wopts)) {
    std::cerr << "cannot write manifest '" << manifest_path << "'\n";
    return 1;
  }

  clb::campaign::print_campaign_tables(std::cout, *spec, result);
  clb::campaign::print_campaign_summary(std::cout, result);
  std::cout << "manifest: " << manifest_path << "\n";
  return result.all_hold ? 0 : 1;
}

int cmd_version() {
#ifdef CLB_VERSION
  std::cout << "clb " << CLB_VERSION << "\n";
#else
  std::cout << "clb (unversioned build)\n";
#endif
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "bounds") return cmd_bounds(argc - 2, argv + 2);
    if (cmd == "gap") return cmd_gap(argc - 2, argv + 2);
    if (cmd == "solve") return cmd_solve(argc - 2, argv + 2);
    if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
    if (cmd == "protocols") return cmd_protocols(argc - 2, argv + 2);
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "version" || cmd == "--version") return cmd_version();
    if (cmd == "help" || cmd == "--help") {
      print_usage(std::cout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
