// PWS job model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/node.h"
#include "net/ids.h"
#include "net/symbol.h"
#include "sim/time.h"

namespace phoenix::pws {

enum class JobState : std::uint8_t {
  kAuthorizing,  // waiting for the security service's verdict
  kQueued,
  kRunning,
  kCompleted,
  kFailed,     // a hosting node died and the retry budget is exhausted
  kRejected,   // authorization denied
  kCancelled,
  kTimedOut,   // exceeded its walltime limit and was killed
};

std::string_view to_string(JobState state) noexcept;

using JobId = std::uint64_t;

/// Per-request verdict of the submission path. Batch replies carry one per
/// request so a client can tell "the pool said no" (kUnknownPool) from "the
/// admission-control token bucket said slow down" (kAdmissionDenied).
enum class SubmitStatus : std::uint8_t {
  kAccepted,
  kAdmissionDenied,  // per-tenant token bucket empty (job spam)
  kUnknownPool,
  kAuthDenied,       // security service refused
  kCancelled,        // absorbed by the gateway before ever being sent
  kUnavailable,      // gateway retry budget exhausted, outcome unknown
};

std::string_view to_string(SubmitStatus status) noexcept;

/// What a user hands to a job-management system (PWS or the PBS baseline).
struct SubmitRequest {
  std::string name;
  std::string user;
  std::string pool;
  unsigned nodes = 1;
  sim::SimTime duration = 0;
  int priority = 0;               // higher runs first within a pool
  sim::SimTime walltime_limit = 0;  // 0 = unlimited; exceeded jobs are killed
  std::string arch;               // required node architecture ("" = any)
  /// Dependency: this job may only start after the given job COMPLETED
  /// successfully ("afterok"). If the dependency fails / is cancelled /
  /// times out, this job is cancelled too. 0 = no dependency.
  JobId after_ok = 0;
};

struct Job {
  JobId id = 0;
  std::string name;
  std::string user;
  std::string pool;
  unsigned nodes_needed = 1;
  sim::SimTime duration = 0;
  int priority = 0;
  sim::SimTime walltime_limit = 0;
  std::string arch;
  JobId after_ok = 0;

  JobState state = JobState::kQueued;
  sim::SimTime submitted_at = 0;
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;
  std::vector<net::NodeId> allocated;
  std::map<std::uint32_t, cluster::Pid> pids;  // node id -> process id
  unsigned exited = 0;
  unsigned requeues = 0;

  /// Interned identities (net/symbol.h), filled by the scheduler at
  /// submission/recovery so hot paths compare dense ids, not strings.
  /// Volatile: never serialized; rebuilt from `user`/`pool` on restore.
  net::SymbolId user_sym{};
  net::SymbolId pool_sym{};

  bool terminal() const noexcept {
    return state == JobState::kCompleted || state == JobState::kFailed ||
           state == JobState::kRejected || state == JobState::kCancelled ||
           state == JobState::kTimedOut;
  }
};

/// Appends `job`'s checkpoint line, '\n' included, to `out`.
void append_job_line(std::string& out, const Job& job);

/// One line per job; used for the scheduler's checkpoint state.
std::string serialize_jobs(const std::map<JobId, Job>& jobs);
/// Inverse of serialize_jobs(); malformed lines are skipped.
std::map<JobId, Job> deserialize_jobs(std::string_view data);

/// serialize_jobs() for a table that is saved after every change. A
/// terminal job's line is formatted once and reused on every later save;
/// live jobs are formatted fresh each time. The output equals
/// serialize_jobs(jobs) as long as every change to a job that may already
/// be terminal is reported through invalidate().
class JobTableImage {
 public:
  std::string serialize(const std::map<JobId, Job>& jobs);
  void invalidate(JobId id) { terminal_lines_.erase(id); }
  void clear() { terminal_lines_.clear(); }
  std::size_t cached_lines() const noexcept { return terminal_lines_.size(); }

 private:
  std::map<JobId, std::string> terminal_lines_;
  std::string buffer_;  // keeps its capacity from one save to the next
};

}  // namespace phoenix::pws
