// Campaign runner: spec -> job DAG -> scheduler -> resumable manifest.
//
// run_campaign expands a CampaignSpec into a DAG of jobs (one shared build
// job per distinct gadget shape, then per-sweep solve and check jobs),
// executes it on the work-stealing scheduler with the content-addressed
// cache underneath, and returns one JobRecord per job. The records are the
// run manifest: write_manifest serializes them as `campaign.json`,
// read_manifest parses one back, and passing the parsed records as `prior`
// to run_campaign resumes — jobs whose (id, inputs_hash) match a prior
// record are skipped (their records carried over) or replayed from
// recorded data instead of re-executed, so a killed campaign completes by
// re-running only the missing work.
//
// Determinism contract: every record field in the manifest's canonical
// form is a pure function of the spec. Worker count, steal order, cache
// temperature, and kill/resume history are all invisible there — the
// volatile fields (wall times, cache hits, thread count) live behind
// ManifestWriteOptions::include_volatile and are excluded from the
// canonical form that the bit-identity tests compare.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/jobs.hpp"
#include "campaign/manifest.hpp"
#include "campaign/supervise.hpp"

namespace congestlb::obs {
class MetricsRegistry;
}

namespace congestlb::campaign {

struct RunOptions {
  std::size_t threads = 1;
  /// Disk tier directory for the content cache; empty = in-memory only.
  std::string cache_dir;
  /// Stop issuing new jobs after this many executed (0 = run everything).
  /// Simulates a killed campaign: the returned records cover only the jobs
  /// that finished, exactly what a manifest written at kill time holds.
  std::size_t max_jobs = 0;
  /// Optional metrics sink; campaign.* counters/histograms are registered
  /// there and a campaign.*-filtered snapshot lands in the full manifest.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-job wall-clock deadline for exact-solve jobs (0 = none). A solve
  /// whose deadline fires still records its certified best incumbent,
  /// flagged approximate — approximate results are never cached and never
  /// honored on resume, so a later run with more budget replaces them.
  std::uint64_t job_deadline_ms = 0;
  /// Retry/quarantine discipline for failing jobs (campaign/supervise.hpp).
  RetryPolicy retry;
  /// Deterministic fault injection for tests and the chaos harness.
  std::optional<ChaosConfig> chaos;
};

struct JobRecord {
  std::string id;  ///< "gadget/<point>" or "<sweep>/<point>/<stage>"
  std::uint64_t inputs_hash = 0;
  std::string stage;    ///< "build" | "solve-yes" | "solve-no" | "check"
  /// "built" | "opt" | "holds" | "violated", or the fault verdicts:
  /// "quarantined" (failed every retry) | "blocked" (a dependency was
  /// quarantined or blocked, so this job never ran). Fault verdicts are
  /// canonical — a degraded campaign is visibly degraded in the manifest —
  /// but match() never honors them on resume, so the jobs re-run.
  std::string verdict;
  PointOutcome outcome;
  // Volatile (excluded from the canonical manifest form):
  bool resumed = false;    ///< carried/replayed from a prior manifest
  bool cache_hit = false;  ///< served from the content cache
  double wall_ms = 0;
  std::size_t attempts = 1;      ///< supervisor tries consumed
  std::uint64_t backoff_us = 0;  ///< total scheduled retry backoff
  std::string diagnostic;        ///< last failure (fault verdicts only)
};

struct CampaignResult {
  std::string campaign;
  std::uint64_t spec_hash = 0;
  /// One record per completed job, sorted by id. A truncated (max_jobs)
  /// run omits records for jobs that never executed.
  std::vector<JobRecord> records;
  std::size_t jobs_total = 0;    ///< jobs the spec expands to
  std::size_t jobs_run = 0;      ///< executed this run (incl. replays)
  std::size_t jobs_resumed = 0;  ///< carried or replayed from `prior`
  bool complete = false;         ///< every expanded job has a record
  std::size_t checks = 0;          ///< check records present
  std::size_t checks_holding = 0;  ///< ... with verdict "holds"
  /// complete && every check holds && nothing quarantined or blocked.
  bool all_hold = false;
  std::size_t jobs_quarantined = 0;  ///< verdict == "quarantined"
  std::size_t jobs_blocked = 0;      ///< verdict == "blocked"
  std::uint64_t retries = 0;         ///< supervisor retry attempts, total
  CacheStats cache;
  double total_wall_ms = 0;
  std::size_t threads = 1;

  const JobRecord* find(std::string_view id) const;
};

/// Execute the campaign. `prior` (e.g. read_manifest of a partial run)
/// enables resume; pass nullptr for a fresh run. Throws InvariantError on
/// spec problems; job-level errors propagate after the DAG drains.
CampaignResult run_campaign(const CampaignSpec& spec, const RunOptions& opts,
                            const std::map<std::string, JobRecord>* prior =
                                nullptr);

struct ManifestWriteOptions {
  /// Include wall times, cache hits, thread count, cache stats, and the
  /// campaign.* metrics snapshot. OFF = the canonical form: bit-identical
  /// across worker counts, cache states, and kill/resume histories.
  bool include_volatile = true;
  const obs::MetricsRegistry* metrics = nullptr;
};

void write_manifest(std::ostream& os, const CampaignResult& result,
                    const ManifestWriteOptions& opts = {});

/// A parsed manifest: enough to resume (records) and to report status.
struct ParsedManifest {
  std::string campaign;
  std::uint64_t spec_hash = 0;
  std::map<std::string, JobRecord> records;
  std::size_t jobs_total = 0;
  bool complete = false;
  bool all_hold = false;
  std::size_t jobs_quarantined = 0;  ///< records with verdict "quarantined"
  std::size_t jobs_blocked = 0;      ///< records with verdict "blocked"
};

/// Parse a manifest document (canonical or full). Throws InvariantError on
/// anything that is not a clb campaign manifest.
ParsedManifest read_manifest(std::string_view json_text);

}  // namespace congestlb::campaign
