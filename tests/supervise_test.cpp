// Fault-domain supervision (campaign/supervise.hpp): deterministic retry
// backoff (byte-identical across worker counts), quarantine on exhaustion,
// chaos injection and its environment contract, blocked-dependent
// propagation through a real campaign, and the deadline-cancelled solve
// path returning a certified approximate incumbent.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/jobs.hpp"
#include "campaign/manifest.hpp"
#include "campaign/supervise.hpp"
#include "lowerbound/linear_family.hpp"
#include "lowerbound/params.hpp"
#include "support/deadline.hpp"
#include "support/expect.hpp"

namespace clb = congestlb;
namespace cmp = clb::campaign;

namespace {

/// Unit-test policy: real retry discipline, no real sleeping.
cmp::RetryPolicy fast_policy(std::size_t max_attempts = 3) {
  cmp::RetryPolicy p;
  p.max_attempts = max_attempts;
  p.sleep = false;
  return p;
}

std::string canonical_manifest(const cmp::CampaignResult& result) {
  std::ostringstream os;
  cmp::ManifestWriteOptions opts;
  opts.include_volatile = false;
  cmp::write_manifest(os, result, opts);
  return os.str();
}

/// Scoped CLB_CHAOS_* environment: sets on construction, clears all chaos
/// variables on destruction so tests cannot leak config into each other.
struct ChaosEnv {
  explicit ChaosEnv(
      std::initializer_list<std::pair<const char*, const char*>> kv) {
    clear();
    for (const auto& [k, v] : kv) ::setenv(k, v, 1);
  }
  ~ChaosEnv() { clear(); }
  static void clear() {
    for (const char* k :
         {"CLB_CHAOS_KILL_AFTER_JOBS", "CLB_CHAOS_FAIL_RATE",
          "CLB_CHAOS_FAIL_SEED", "CLB_CHAOS_POISON"}) {
      ::unsetenv(k);
    }
  }
};

}  // namespace

// ------------------------------------------------------ backoff determinism --

TEST(Supervisor, BackoffIsPureAndStaysInEnvelope) {
  const cmp::RetryPolicy policy = fast_policy(8);
  cmp::Supervisor a(policy, /*seed=*/2020);
  cmp::Supervisor b(policy, /*seed=*/2020);
  for (const char* job : {"gadget/l2a1t2", "C12/l2a1t2k3/solve-yes"}) {
    for (std::size_t attempt = 0; attempt < 8; ++attempt) {
      const std::uint64_t d = a.backoff_for(job, attempt);
      // Pure: same (seed, job, attempt) -> same delay, across instances
      // and repeated calls.
      EXPECT_EQ(d, a.backoff_for(job, attempt));
      EXPECT_EQ(d, b.backoff_for(job, attempt));
      // Envelope: base*2^k capped, jittered into [envelope/2, envelope].
      const std::uint64_t envelope = std::min(
          policy.backoff_cap_us, policy.backoff_base_us << attempt);
      EXPECT_GE(d, envelope / 2) << job << " attempt " << attempt;
      EXPECT_LE(d, envelope) << job << " attempt " << attempt;
    }
  }
  // The campaign seed namespaces the jitter: a different seed must not
  // reproduce the same delay stream (overwhelmingly likely to differ).
  cmp::Supervisor other(policy, /*seed=*/2021);
  bool any_differ = false;
  for (std::size_t attempt = 0; attempt < 8; ++attempt) {
    any_differ |= other.backoff_for("gadget/l2a1t2", attempt) !=
                  a.backoff_for("gadget/l2a1t2", attempt);
  }
  EXPECT_TRUE(any_differ);
}

TEST(Supervisor, RetryRecoversFromTransientFailures) {
  cmp::Supervisor sup(fast_policy(3), 7);
  int calls = 0;
  const auto out = sup.supervise("job", [&] {
    if (++calls < 3) throw clb::InvariantError("transient");
  });
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(out.backoff_total_us,
            sup.backoff_for("job", 0) + sup.backoff_for("job", 1));
  EXPECT_EQ(sup.retries(), 2u);
  EXPECT_EQ(sup.quarantined(), 0u);
  EXPECT_TRUE(sup.faults().empty());
}

TEST(Supervisor, ExhaustionQuarantinesWithDiagnostic) {
  cmp::Supervisor sup(fast_policy(3), 7);
  int calls = 0;
  const auto out = sup.supervise("P2/l3a1t3/check", [&] {
    ++calls;
    throw std::runtime_error("poison payload " + std::to_string(calls));
  });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(out.attempts, 3u);
  // The diagnostic is the *last* failure, not the first.
  EXPECT_NE(out.diagnostic.find("poison payload 3"), std::string::npos);
  EXPECT_EQ(sup.retries(), 2u);
  EXPECT_EQ(sup.quarantined(), 1u);
  const auto faults = sup.faults();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].job_id, "P2/l3a1t3/check");
  EXPECT_EQ(faults[0].attempts, 3u);
  EXPECT_EQ(faults[0].backoff_total_us, out.backoff_total_us);
  EXPECT_EQ(faults[0].diagnostic, out.diagnostic);
}

TEST(Supervisor, SingleAttemptPolicyNeverRetries) {
  cmp::Supervisor sup(fast_policy(1), 7);
  const auto out =
      sup.supervise("job", [] { throw clb::InvariantError("once"); });
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.backoff_total_us, 0u);
  EXPECT_EQ(sup.retries(), 0u);
  EXPECT_EQ(sup.quarantined(), 1u);
}

TEST(Supervisor, NonStdExceptionPropagates) {
  // Only std::exception is a "job failure"; anything else is a harness bug
  // and must unwind through the supervisor untouched.
  cmp::Supervisor sup(fast_policy(3), 7);
  bool caught = false;
  try {
    sup.supervise("job", [] { throw 42; });
  } catch (int v) {
    caught = (v == 42);
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(sup.quarantined(), 0u);
}

// ------------------------------------------------------------------- chaos --

TEST(Supervisor, PoisonSubstringQuarantinesWithoutRunningBody) {
  cmp::ChaosConfig chaos;
  chaos.poison_substring = "solve-yes";
  cmp::Supervisor sup(fast_policy(3), 7, chaos);
  int poisoned_calls = 0;
  const auto bad = sup.supervise("C12/l2a1t2k3/solve-yes",
                                 [&] { ++poisoned_calls; });
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(poisoned_calls, 0) << "poison must fail before the body runs";
  EXPECT_EQ(bad.attempts, 3u);
  EXPECT_EQ(sup.quarantined(), 1u);
  // A job whose id does not match runs normally under the same config.
  int clean_calls = 0;
  const auto good =
      sup.supervise("C12/l2a1t2k3/solve-no", [&] { ++clean_calls; });
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(clean_calls, 1);
}

TEST(Supervisor, InjectedFailuresAreDeterministic) {
  cmp::ChaosConfig chaos;
  chaos.fail_rate = 0.5;
  chaos.fail_seed = 42;
  const auto attempts_per_job = [&] {
    cmp::Supervisor sup(fast_policy(4), 7, chaos);
    std::vector<std::size_t> attempts;
    for (int j = 0; j < 32; ++j) {
      attempts.push_back(
          sup.supervise("job-" + std::to_string(j), [] {}).attempts);
    }
    return attempts;
  };
  const auto first = attempts_per_job();
  EXPECT_EQ(first, attempts_per_job());
  // At rate 0.5 over 32 jobs, both clean first tries and retries must
  // occur (the injection actually bites and actually spares).
  bool any_clean = false, any_retried = false;
  for (const std::size_t a : first) {
    any_clean |= a == 1;
    any_retried |= a > 1;
  }
  EXPECT_TRUE(any_clean);
  EXPECT_TRUE(any_retried);
  // A different fail seed yields a different failure pattern.
  chaos.fail_seed = 43;
  EXPECT_NE(first, attempts_per_job());
}

TEST(ChaosEnvContract, RoundTripAndRejection) {
  {
    ChaosEnv env({});
    EXPECT_EQ(cmp::chaos_from_env(), std::nullopt);
  }
  {
    ChaosEnv env({{"CLB_CHAOS_KILL_AFTER_JOBS", "3"},
                  {"CLB_CHAOS_FAIL_RATE", "0.25"},
                  {"CLB_CHAOS_FAIL_SEED", "99"},
                  {"CLB_CHAOS_POISON", "solve-no"}});
    const auto chaos = cmp::chaos_from_env();
    ASSERT_TRUE(chaos.has_value());
    EXPECT_EQ(chaos->kill_after_jobs, 3);
    EXPECT_DOUBLE_EQ(chaos->fail_rate, 0.25);
    EXPECT_EQ(chaos->fail_seed, 99u);
    EXPECT_EQ(chaos->poison_substring, "solve-no");
  }
  {
    // One variable set is enough to arm chaos.
    ChaosEnv env({{"CLB_CHAOS_POISON", "check"}});
    const auto chaos = cmp::chaos_from_env();
    ASSERT_TRUE(chaos.has_value());
    EXPECT_EQ(chaos->poison_substring, "check");
    EXPECT_EQ(chaos->kill_after_jobs, -1);
    EXPECT_DOUBLE_EQ(chaos->fail_rate, 0.0);
  }
  // Malformed values must throw, never silently run non-chaotic.
  {
    ChaosEnv env({{"CLB_CHAOS_KILL_AFTER_JOBS", "soon"}});
    EXPECT_THROW(cmp::chaos_from_env(), clb::InvariantError);
  }
  {
    ChaosEnv env({{"CLB_CHAOS_FAIL_RATE", "1.5"}});
    EXPECT_THROW(cmp::chaos_from_env(), clb::InvariantError);
  }
  {
    ChaosEnv env({{"CLB_CHAOS_FAIL_SEED", "-1"}});
    EXPECT_THROW(cmp::chaos_from_env(), clb::InvariantError);
  }
}

// ------------------------------------------- supervision inside a campaign --

namespace {

/// id -> (attempts, backoff_us, verdict) for every record: the full
/// fault-visible surface of a run.
std::map<std::string, std::tuple<std::size_t, std::uint64_t, std::string>>
fault_surface(const cmp::CampaignResult& result) {
  std::map<std::string, std::tuple<std::size_t, std::uint64_t, std::string>>
      m;
  for (const auto& r : result.records) {
    m.emplace(r.id, std::make_tuple(r.attempts, r.backoff_us, r.verdict));
  }
  return m;
}

}  // namespace

TEST(CampaignSupervision, RetrySequenceByteIdenticalAcrossThreadCounts) {
  // The acceptance pin: with deterministic fault injection, the retry
  // count, total backoff, and verdict of every job — and the canonical
  // manifest — are identical for 1, 2, and 8 workers.
  const auto spec = cmp::builtin_smoke_campaign();
  const auto run_at = [&](std::size_t threads) {
    cmp::RunOptions opts;
    opts.threads = threads;
    opts.retry = fast_policy(3);
    cmp::ChaosConfig chaos;
    chaos.fail_rate = 0.35;
    chaos.fail_seed = 11;
    opts.chaos = chaos;
    return cmp::run_campaign(spec, opts);
  };
  const auto base = run_at(1);
  EXPECT_GT(base.retries, 0u) << "fail_rate 0.35 never bit — raise it";
  const auto base_surface = fault_surface(base);
  const std::string base_manifest = canonical_manifest(base);
  for (const std::size_t threads : {2u, 8u}) {
    const auto got = run_at(threads);
    EXPECT_EQ(got.retries, base.retries) << "threads=" << threads;
    EXPECT_EQ(got.jobs_quarantined, base.jobs_quarantined);
    EXPECT_EQ(got.jobs_blocked, base.jobs_blocked);
    EXPECT_EQ(fault_surface(got), base_surface) << "threads=" << threads;
    EXPECT_EQ(canonical_manifest(got), base_manifest)
        << "threads=" << threads;
  }
}

TEST(CampaignSupervision, PoisonQuarantinesAndBlocksDependents) {
  const auto spec = cmp::builtin_smoke_campaign();

  // Reference: the clean run this degraded campaign must converge back to.
  cmp::RunOptions clean_opts;
  clean_opts.retry = fast_policy(2);
  const auto reference = cmp::run_campaign(spec, clean_opts);
  ASSERT_TRUE(reference.all_hold);

  // Poison every solve-no job: those quarantine, and every claim check
  // depending on one is blocked without executing.
  cmp::RunOptions opts;
  opts.retry = fast_policy(2);
  cmp::ChaosConfig chaos;
  chaos.poison_substring = "/solve-no";
  opts.chaos = chaos;
  const auto degraded = cmp::run_campaign(spec, opts);

  EXPECT_TRUE(degraded.complete) << "every job still gets a record";
  EXPECT_FALSE(degraded.all_hold) << "a degraded run must not claim victory";
  EXPECT_EQ(degraded.jobs_quarantined, 4u);  // C12 x2 + C35 x2 solve-no
  EXPECT_EQ(degraded.jobs_blocked, 4u);      // ... and their checks
  for (const auto& r : degraded.records) {
    if (r.id.find("/solve-no") != std::string::npos) {
      EXPECT_EQ(r.verdict, "quarantined") << r.id;
      EXPECT_FALSE(r.diagnostic.empty()) << r.id;
      EXPECT_EQ(r.attempts, 2u) << r.id;
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
  cmp::RunOptions resume_opts;
  resume_opts.retry = fast_policy(2);
  const auto recovered = cmp::run_campaign(spec, resume_opts, &prior);
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
