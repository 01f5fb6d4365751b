// The campaign's fault domain (docs/ROBUSTNESS.md): the CLB_CHAOS_*
// environment contract, quarantine on a job's first throw with blocked
// dependents, and the deadline-cancelled solve path returning a certified
// approximate incumbent that is never cached or resumed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "campaign/campaign.hpp"
#include "campaign/jobs.hpp"
#include "campaign/manifest.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;

namespace {

std::string canonical_manifest(const cmp::CampaignResult& result) {
  std::ostringstream os;
  cmp::ManifestWriteOptions opts;
  opts.include_volatile = false;
  cmp::write_manifest(os, result, opts);
  return os.str();
}

/// Scoped CLB_CHAOS_* environment: sets on construction, clears every chaos
/// variable these tests use on destruction so tests cannot leak config into
/// each other.
struct ChaosEnv {
  explicit ChaosEnv(
      std::initializer_list<std::pair<const char*, const char*>> kv) {
    clear();
    for (const auto& [k, v] : kv) ::setenv(k, v, 1);
  }
  ~ChaosEnv() { clear(); }
  static void clear() {
    for (const char* k : {"CLB_CHAOS_KILL_AFTER_JOBS", "CLB_CHAOS_POISON",
                          "CLB_CHAOS_KILL_AFTER_JOB", "CLB_CHAOS_FAIL_RATE"}) {
      ::unsetenv(k);
    }
  }
};

}  // namespace

// ------------------------------------------------------------------- chaos --

TEST(ChaosEnvContract, RoundTripAndRejection) {
  {
    ChaosEnv env({});
    EXPECT_EQ(cmp::chaos_from_env(), std::nullopt);
  }
  {
    ChaosEnv env({{"CLB_CHAOS_KILL_AFTER_JOBS", "3"},
                  {"CLB_CHAOS_POISON", "solve-no"}});
    const auto chaos = cmp::chaos_from_env();
    ASSERT_TRUE(chaos.has_value());
    EXPECT_EQ(chaos->kill_after_jobs, 3);
    EXPECT_EQ(chaos->poison_substring, "solve-no");
  }
  {
    // One variable set is enough to arm chaos.
    ChaosEnv env({{"CLB_CHAOS_POISON", "check"}});
    const auto chaos = cmp::chaos_from_env();
    ASSERT_TRUE(chaos.has_value());
    EXPECT_EQ(chaos->poison_substring, "check");
    EXPECT_EQ(chaos->kill_after_jobs, -1);
  }
  // Malformed values must throw, never silently run non-chaotic.
  for (const char* bad : {"soon", "-1", "", "3x"}) {
    ChaosEnv env({{"CLB_CHAOS_KILL_AFTER_JOBS", bad}});
    EXPECT_THROW(cmp::chaos_from_env(), clb::InvariantError) << bad;
  }
  // So must any other CLB_CHAOS_* name: a misspelled variable, and the
  // failure-rate injector that no longer exists, would otherwise run a
  // campaign nobody attacks.
  {
    ChaosEnv env({{"CLB_CHAOS_KILL_AFTER_JOB", "3"}});
    EXPECT_THROW(cmp::chaos_from_env(), clb::InvariantError);
  }
  {
    ChaosEnv env({{"CLB_CHAOS_FAIL_RATE", "0.3"},
                  {"CLB_CHAOS_POISON", "check"}});
    EXPECT_THROW(cmp::chaos_from_env(), clb::InvariantError);
  }
}

// ------------------------------------------------ quarantine inside a campaign --

TEST(CampaignSupervision, PoisonQuarantinesAndBlocksDependents) {
  const auto spec = cmp::builtin_smoke_campaign();

  // Reference: the clean run this degraded campaign must converge back to.
  const auto reference = cmp::run_campaign(spec, cmp::RunOptions{});
  ASSERT_TRUE(reference.all_hold);

  // Poison every solve-no job: each throws before its body runs and is
  // quarantined on that first throw, and every claim check depending on
  // one is blocked without executing.
  cmp::RunOptions opts;
  cmp::ChaosConfig chaos;
  chaos.poison_substring = "/solve-no";
  opts.chaos = chaos;
  const auto degraded = cmp::run_campaign(spec, opts);

  EXPECT_TRUE(degraded.complete) << "every job still gets a record";
  EXPECT_FALSE(degraded.all_hold) << "a degraded run must not claim victory";
  EXPECT_EQ(degraded.jobs_quarantined, 4u);  // C12 x2 + C35 x2 solve-no
  EXPECT_EQ(degraded.jobs_blocked, 4u);      // ... and their checks
  // Neither a poisoned body nor a blocked check ran, so neither stored an
  // artifact.
  EXPECT_EQ(degraded.cache.writes, reference.cache.writes - 8);
  for (const auto& r : degraded.records) {
    if (r.id.find("/solve-no") != std::string::npos) {
      EXPECT_EQ(r.verdict, "quarantined") << r.id;
      EXPECT_EQ(r.diagnostic, "chaos: poisoned job") << r.id;
      EXPECT_EQ(r.outcome.opt, cmp::PointOutcome{}.opt) << r.id;
    } else if (r.id.find("C12/") == 0 || r.id.find("C35/") == 0) {
      if (r.stage == "check") {
        EXPECT_EQ(r.verdict, "blocked") << r.id;
      }
    } else if (r.stage == "check") {
      // Property sweeps have no solve dependency and still hold.
      EXPECT_EQ(r.verdict, "holds") << r.id;
    }
  }

  // Fault verdicts are canonical (the manifest shows the degradation)...
  const std::string degraded_manifest = canonical_manifest(degraded);
  EXPECT_NE(degraded_manifest.find("\"quarantined\""), std::string::npos);
  EXPECT_NE(degraded_manifest.find("\"blocked\""), std::string::npos);

  // ... but never honored on resume: with chaos off and the degraded
  // records as prior, exactly the faulted jobs re-run and the campaign
  // converges to the clean reference manifest.
  std::map<std::string, cmp::JobRecord> prior;
  for (const auto& r : degraded.records) prior.emplace(r.id, r);
  const auto recovered = cmp::run_campaign(spec, cmp::RunOptions{}, &prior);
  EXPECT_TRUE(recovered.all_hold);
  EXPECT_EQ(recovered.jobs_quarantined, 0u);
  EXPECT_EQ(recovered.jobs_blocked, 0u);
  EXPECT_EQ(canonical_manifest(recovered), canonical_manifest(reference));
  EXPECT_GT(recovered.jobs_resumed, 0u) << "healthy records must carry over";
  EXPECT_GE(recovered.jobs_run, 8u) << "faulted jobs must actually re-run";
}

// ------------------------------------------------------ deadline cancelling --

TEST(CampaignSupervision, CancelledSolveBranchIsCertifiedApproximate) {
  const auto params = clb::lb::GadgetParams::from_l_alpha(3, 1, 4);
  const clb::lb::LinearConstruction c(params, 2);

  clb::DeadlineToken cancelled;
  cancelled.cancel();
  const auto partial =
      cmp::solve_branch(c, /*yes_branch=*/true, /*trials=*/2, 2020,
                        &cancelled);
  EXPECT_TRUE(partial.approximate);
  EXPECT_GE(partial.opt, 0) << "incumbent weight is still a certified IS";

  const auto exact = cmp::solve_branch(c, true, 2, 2020);
  EXPECT_FALSE(exact.approximate);
  EXPECT_LE(partial.opt, exact.opt)
      << "a partial incumbent can never exceed OPT";

  // An armed-but-generous deadline must not perturb the exact result.
  const clb::DeadlineToken generous(std::chrono::minutes(10));
  const auto timed = cmp::solve_branch(c, true, 2, 2020, &generous);
  EXPECT_FALSE(timed.approximate);
  EXPECT_EQ(timed.opt, exact.opt);
}

TEST(CampaignSupervision, ApproximateResultsAreNeverCachedOrResumed) {
  // Which solves a real deadline cancels depends on machine speed, so the
  // approximate records are made by hand: an exact run's records with every
  // third solve flagged approximate, as a fired deadline leaves them.
  const auto spec = cmp::builtin_smoke_campaign();
  const auto exact = cmp::run_campaign(spec, cmp::RunOptions{});
  ASSERT_TRUE(exact.complete);

  std::map<std::string, cmp::JobRecord> prior;
  std::set<std::string> flagged;  // solve records marked approximate
  std::set<std::string> rebuilt;  // the builds those solves depend on
  std::size_t solves = 0;
  for (const auto& r : exact.records) {
    ASSERT_FALSE(r.outcome.approximate) << r.id;
    cmp::JobRecord rec = r;
    if ((r.stage == "solve-yes" || r.stage == "solve-no") && solves++ % 3 == 0) {
      rec.outcome.approximate = true;
      flagged.insert(r.id);
      // "<sweep>/<point>/<stage>" reads the graph built by "gadget/<point>".
      const std::size_t first = r.id.find('/');
      const std::size_t last = r.id.rfind('/');
      rebuilt.insert("gadget/" + r.id.substr(first + 1, last - first - 1));
    }
    prior.emplace(r.id, std::move(rec));
  }
  ASSERT_FALSE(flagged.empty());
  for (const auto& id : rebuilt) ASSERT_EQ(prior.count(id), 1u) << id;

  // Resume over those records: match() refuses every approximate record,
  // so each flagged solve re-runs, and its build re-runs because a running
  // solve needs the graph. Everything else is carried over or replayed.
  const auto resumed = cmp::run_campaign(spec, cmp::RunOptions{}, &prior);
  EXPECT_TRUE(resumed.all_hold);
  for (const auto& r : resumed.records) {
    EXPECT_FALSE(r.outcome.approximate) << r.id;
    const bool reran = flagged.count(r.id) + rebuilt.count(r.id) > 0;
    EXPECT_EQ(r.resumed, !reran) << r.id;
  }
  EXPECT_EQ(resumed.jobs_run, flagged.size() + rebuilt.size());
  EXPECT_EQ(resumed.jobs_resumed + flagged.size() + rebuilt.size(),
            resumed.jobs_total)
      << "exactly the approximate records and their builds were re-run";
  EXPECT_EQ(canonical_manifest(resumed), canonical_manifest(exact));
}
