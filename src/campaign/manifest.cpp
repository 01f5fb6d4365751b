#include "campaign/manifest.hpp"

#include <ostream>
#include <sstream>

#include "support/expect.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace congestlb::campaign {

std::string_view to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::kProperty1: return "property1";
    case CheckKind::kProperty2: return "property2";
    case CheckKind::kProperty3: return "property3";
    case CheckKind::kClaim12: return "claim12";
    case CheckKind::kClaim35: return "claim35";
    case CheckKind::kApproxSweep: return "approx";
    case CheckKind::kBlackboardSweep: return "blackboard";
  }
  return "unknown";
}

std::optional<CheckKind> check_kind_from_string(std::string_view s) {
  if (s == "property1") return CheckKind::kProperty1;
  if (s == "property2") return CheckKind::kProperty2;
  if (s == "property3") return CheckKind::kProperty3;
  if (s == "claim12") return CheckKind::kClaim12;
  if (s == "claim35") return CheckKind::kClaim35;
  if (s == "approx") return CheckKind::kApproxSweep;
  if (s == "blackboard") return CheckKind::kBlackboardSweep;
  return std::nullopt;
}

std::string CampaignSpec::canonical() const {
  std::ostringstream os;
  os << "campaign=" << name << "|seed=" << seed << "\n";
  for (const SweepSpec& s : sweeps) {
    os << "sweep=" << s.name << "|check=" << to_string(s.check)
       << "|trials=" << s.trials << "|budget=" << s.sample_budget;
    // Appended only when non-default: pre-approx specs hash identically.
    if (s.eps_num != 1 || s.eps_den != 4) {
      os << "|eps=" << s.eps_num << "/" << s.eps_den;
    }
    os << ":";
    for (const GridPoint& p : s.points) {
      os << " (" << p.ell << "," << p.alpha << "," << p.t << ",";
      if (p.k.has_value()) {
        os << *p.k;
      } else {
        os << "auto";
      }
      os << ")";
    }
    os << "\n";
  }
  return os.str();
}

std::uint64_t CampaignSpec::content_hash() const { return fnv1a64(canonical()); }

namespace {

std::size_t parse_size(const JsonValue& v, const char* what) {
  const std::uint64_t raw = v.as_u64();
  CLB_EXPECT(raw <= ~std::size_t{0}, std::string(what) + " out of range");
  return static_cast<std::size_t>(raw);
}

GridPoint parse_point(const JsonValue& v) {
  GridPoint p;
  p.ell = parse_size(v.at("ell"), "ell");
  p.alpha = parse_size(v.at("alpha"), "alpha");
  p.t = parse_size(v.at("t"), "t");
  if (const JsonValue* k = v.find("k")) p.k = parse_size(*k, "k");
  CLB_EXPECT(p.ell >= 1 && p.alpha >= 1 && p.t >= 2,
             "campaign point: need ell >= 1, alpha >= 1, t >= 2");
  return p;
}

std::vector<std::size_t> parse_axis(const JsonValue& grid, const char* name,
                                    bool required) {
  const JsonValue* axis = grid.find(name);
  if (axis == nullptr) {
    CLB_EXPECT(!required,
               std::string("campaign grid: missing axis '") + name + "'");
    return {};
  }
  std::vector<std::size_t> out;
  for (const JsonValue& v : axis->as_array()) {
    out.push_back(parse_size(v, name));
  }
  CLB_EXPECT(!out.empty(), std::string("campaign grid: empty axis '") + name +
                               "'");
  return out;
}

void expand_grid(const JsonValue& grid, std::vector<GridPoint>& out) {
  const auto ells = parse_axis(grid, "ell", true);
  const auto alphas = parse_axis(grid, "alpha", true);
  const auto ts = parse_axis(grid, "t", true);
  const auto ks = parse_axis(grid, "k", false);
  for (const std::size_t ell : ells) {
    for (const std::size_t alpha : alphas) {
      for (const std::size_t t : ts) {
        if (ks.empty()) {
          GridPoint p{ell, alpha, t, std::nullopt};
          CLB_EXPECT(t >= 2, "campaign grid: t >= 2");
          out.push_back(p);
        } else {
          for (const std::size_t k : ks) {
            out.push_back(GridPoint{ell, alpha, t, k});
          }
        }
      }
    }
  }
}

}  // namespace

CampaignSpec parse_campaign_spec(const JsonValue& doc) {
  CLB_EXPECT(doc.is_object(), "campaign spec: document must be an object");
  CampaignSpec spec;
  if (const JsonValue* name = doc.find("campaign")) {
    spec.name = name->as_string();
  }
  if (const JsonValue* seed = doc.find("seed")) spec.seed = seed->as_u64();
  const JsonValue& sweeps = doc.at("sweeps");
  for (const JsonValue& sv : sweeps.as_array()) {
    SweepSpec s;
    s.name = sv.at("name").as_string();
    CLB_EXPECT(!s.name.empty() && s.name.find('/') == std::string::npos,
               "campaign sweep: name must be non-empty and '/'-free");
    const auto kind = check_kind_from_string(sv.at("check").as_string());
    CLB_EXPECT(kind.has_value(),
               "campaign sweep: unknown check '" + sv.at("check").as_string() +
                   "'");
    s.check = *kind;
    if (const JsonValue* trials = sv.find("trials")) {
      s.trials = parse_size(*trials, "trials");
      CLB_EXPECT(s.trials >= 1, "campaign sweep: trials >= 1");
    }
    if (const JsonValue* budget = sv.find("sample_budget")) {
      s.sample_budget = parse_size(*budget, "sample_budget");
      CLB_EXPECT(s.sample_budget >= 1, "campaign sweep: sample_budget >= 1");
    }
    if (const JsonValue* en = sv.find("eps_num")) {
      s.eps_num = parse_size(*en, "eps_num");
    }
    if (const JsonValue* ed = sv.find("eps_den")) {
      s.eps_den = parse_size(*ed, "eps_den");
    }
    CLB_EXPECT(s.eps_num >= 1 && s.eps_den >= 1,
               "campaign sweep: eps_num and eps_den must be >= 1");
    if (const JsonValue* grid = sv.find("grid")) expand_grid(*grid, s.points);
    if (const JsonValue* points = sv.find("points")) {
      for (const JsonValue& pv : points->as_array()) {
        s.points.push_back(parse_point(pv));
      }
    }
    CLB_EXPECT(!s.points.empty(),
               "campaign sweep '" + s.name + "': no points (need grid/points)");
    if (s.check == CheckKind::kClaim12) {
      for (const GridPoint& p : s.points) {
        CLB_EXPECT(p.t == 2, "claim12 sweep '" + s.name + "': requires t = 2");
      }
    }
    spec.sweeps.push_back(std::move(s));
  }
  CLB_EXPECT(!spec.sweeps.empty(), "campaign spec: no sweeps");
  for (std::size_t i = 0; i < spec.sweeps.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.sweeps.size(); ++j) {
      CLB_EXPECT(spec.sweeps[i].name != spec.sweeps[j].name,
                 "campaign spec: duplicate sweep name '" +
                     spec.sweeps[i].name + "'");
    }
  }
  return spec;
}

CampaignSpec parse_campaign_spec_text(std::string_view json_text) {
  return parse_campaign_spec(parse_json(json_text));
}

void write_campaign_spec(std::ostream& os, const CampaignSpec& spec) {
  JsonWriter jw(os);
  jw.begin_object();
  jw.kv("campaign", spec.name);
  jw.kv("seed", spec.seed);
  jw.key("sweeps");
  jw.begin_array();
  for (const SweepSpec& s : spec.sweeps) {
    jw.begin_object();
    jw.kv("name", s.name);
    jw.kv("check", to_string(s.check));
    jw.kv("trials", static_cast<std::uint64_t>(s.trials));
    jw.kv("sample_budget", static_cast<std::uint64_t>(s.sample_budget));
    // Emitted only when non-default, mirroring canonical(): pre-approx
    // specs round-trip to byte-identical documents.
    if (s.eps_num != 1 || s.eps_den != 4) {
      jw.kv("eps_num", static_cast<std::uint64_t>(s.eps_num));
      jw.kv("eps_den", static_cast<std::uint64_t>(s.eps_den));
    }
    jw.key("points");
    jw.begin_array();
    for (const GridPoint& p : s.points) {
      jw.begin_object();
      jw.kv("ell", static_cast<std::uint64_t>(p.ell));
      jw.kv("alpha", static_cast<std::uint64_t>(p.alpha));
      jw.kv("t", static_cast<std::uint64_t>(p.t));
      if (p.k.has_value()) jw.kv("k", static_cast<std::uint64_t>(*p.k));
      jw.end_object();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  os << "\n";
}

CampaignSpec builtin_paper_campaign() {
  CampaignSpec spec;
  spec.name = "paper";
  spec.seed = 2020;

  // The 8 P1-P3 shapes (sweep over gadget geometry).
  const std::vector<GridPoint> property_shapes = {
      {2, 1, 2, std::nullopt}, {3, 1, 3, std::nullopt},
      {4, 1, 4, std::nullopt}, {3, 2, 2, std::nullopt},
      {4, 2, 3, std::nullopt}, {6, 1, 5, std::nullopt},
      {5, 2, 4, std::nullopt}, {8, 2, 3, std::nullopt}};
  const CheckKind property_checks[] = {
      CheckKind::kProperty1, CheckKind::kProperty2, CheckKind::kProperty3};
  const char* property_names[] = {"P1", "P2", "P3"};
  for (std::size_t i = 0; i < 3; ++i) {
    SweepSpec s;
    s.name = property_names[i];
    s.check = property_checks[i];
    s.points = property_shapes;
    spec.sweeps.push_back(std::move(s));
  }

  // Claims 1-2 at t = 2: the 6 bench_gap_linear C12 shapes.
  {
    SweepSpec s;
    s.name = "C12";
    s.check = CheckKind::kClaim12;
    s.trials = 3;
    s.points = {{2, 1, 2, 3}, {3, 1, 2, 4}, {4, 1, 2, 5},
                {6, 1, 2, 7}, {4, 2, 2, 16}, {8, 1, 2, 9}};
    spec.sweeps.push_back(std::move(s));
  }

  // Claims 3+5 at general t: the 7 bench_gap_linear C35 shapes.
  {
    SweepSpec s;
    s.name = "C35";
    s.check = CheckKind::kClaim35;
    s.trials = 2;
    s.points = {{5, 1, 3, 6}, {4, 1, 3, 5},  {6, 1, 4, 7}, {8, 1, 4, 9},
                {8, 1, 5, 9}, {5, 2, 3, 20}, {10, 1, 6, 11}};
    spec.sweeps.push_back(std::move(s));
  }
  return spec;
}

CampaignSpec builtin_smoke_campaign() {
  CampaignSpec spec;
  spec.name = "smoke";
  spec.seed = 2020;
  const std::vector<GridPoint> shapes = {{2, 1, 2, std::nullopt},
                                         {2, 1, 3, std::nullopt},
                                         {3, 1, 2, std::nullopt},
                                         {3, 1, 3, std::nullopt}};
  SweepSpec p1{"P1", CheckKind::kProperty1, shapes, 1, 20};
  SweepSpec p2{"P2", CheckKind::kProperty2, shapes, 1, 20};
  SweepSpec p3{"P3", CheckKind::kProperty3, shapes, 1, 20};
  SweepSpec c12{"C12",
                CheckKind::kClaim12,
                {{2, 1, 2, 3}, {3, 1, 2, 4}},
                2,
                20};
  SweepSpec c35{"C35",
                CheckKind::kClaim35,
                {{4, 1, 3, 5}, {5, 1, 3, 6}},
                1,
                20};
  spec.sweeps = {p1, p2, p3, c12, c35};
  return spec;
}

CampaignSpec builtin_approx_campaign() {
  CampaignSpec spec;
  spec.name = "approx_sweep";
  spec.seed = 2020;
  // Gadget shapes small enough for branch and bound to certify the
  // optimum (<= 40 nodes), so every point's gap sandwich closes exactly.
  const std::vector<GridPoint> shapes = {{2, 1, 2, std::nullopt},
                                         {2, 1, 3, std::nullopt},
                                         {3, 1, 2, std::nullopt}};
  SweepSpec coarse;
  coarse.name = "A4";
  coarse.check = CheckKind::kApproxSweep;
  coarse.points = shapes;
  SweepSpec fine;
  fine.name = "A8";
  fine.check = CheckKind::kApproxSweep;
  fine.points = shapes;
  fine.eps_num = 1;
  fine.eps_den = 8;
  spec.sweeps = {coarse, fine};
  return spec;
}

CampaignSpec builtin_blackboard_campaign() {
  CampaignSpec spec;
  spec.name = "blackboard_sweep";
  spec.seed = 2020;
  SweepSpec s;
  s.name = "BB";
  s.check = CheckKind::kBlackboardSweep;
  s.points = {{2, 1, 2, std::nullopt},
              {2, 1, 3, std::nullopt},
              {3, 1, 2, std::nullopt},
              {3, 1, 3, std::nullopt}};
  spec.sweeps = {s};
  return spec;
}

std::optional<CampaignSpec> builtin_campaign(std::string_view name) {
  if (name == "paper") return builtin_paper_campaign();
  if (name == "smoke") return builtin_smoke_campaign();
  if (name == "approx_sweep") return builtin_approx_campaign();
  if (name == "blackboard_sweep") return builtin_blackboard_campaign();
  return std::nullopt;
}

}  // namespace congestlb::campaign
