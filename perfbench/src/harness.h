// Benchmark harness shared by the workloads: host-clock spans around calls
// into the program's public functions, failure-aware percentiles, operation
// accounting, the read-your-acknowledged-writes checker, and the per-trial
// result record main.cpp aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- spans -------------------------------------------------------------------

/// One host-clock span. Spans nest strictly (one thread, stack discipline),
/// so a span's self time is its duration minus its direct children's.
struct Span {
  const char* name = "";
  double start_s = 0;  // host seconds since the recorder's origin
  double end_s = 0;
  double self_s = 0;
  std::uint32_t parent = 0;  // 1-based index into spans(); 0 = root
  std::uint32_t run = 0;     // trial id within one benchmark invocation
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing; scope() costs one branch.
  SpanRecorder(bool enabled, std::uint32_t run_id);

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::uint32_t id) : rec_(rec), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (rec_ != nullptr) rec_->close(id_);
    }

   private:
    SpanRecorder* rec_;
    std::uint32_t id_;
  };

  /// Opens a span that closes when the returned scope dies. `name` must
  /// outlive the recorder (string literals).
  [[nodiscard]] Scope scope(const char* name) {
    if (!enabled_) return Scope(nullptr, 0);
    return Scope(this, open(name));
  }

  bool enabled() const noexcept { return enabled_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  /// Count, total and self time per span name.
  std::map<std::string, Totals> totals() const;

  /// Writes every span as one TSV line: id, parent, run, name, start, end, self.
  bool write_tsv(const std::string& path) const;

 private:
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  bool enabled_;
  std::uint32_t run_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  struct Frame {
    std::uint32_t id;
    double child_s;
  };
  std::vector<Frame> stack_;
};

// --- statistics ----------------------------------------------------------------

/// Nearest-rank percentile of `samples` plus `failures` extra samples that
/// count as +infinity (a failed operation misses every latency limit).
/// Returns +infinity when the rank falls among the failures, NaN when there
/// is no sample at all. Samples are multiples of the simulator's clock
/// `tick`; with tick > 0 the result is interpolated inside the tick by the
/// rank's position among the samples tied at that value, so many tied
/// samples do not pin the percentile to one tick.
double percentile_with_failures(std::vector<double> samples,
                                std::size_t failures, double q,
                                double tick = 0.0);

/// Median of `xs` (mean of the two middle values for an even count).
double median(std::vector<double> xs);

/// Jain's fairness index over per-client served/attempted ratios; clients
/// with no attempt are skipped. 1.0 when every client got the same share.
double jain_index(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                      served_attempted);

/// Operation outcomes. Denials (token-bucket admission) and cancels are
/// policy, not failure; everything attempted ends in exactly one bucket.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t denied = 0;
  std::uint64_t cancelled = 0;

  bool closes() const noexcept {
    return attempted == ok + failed + denied + cancelled;
  }
  double fail_frac() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Outcome ledger for a fixed list of operations. Each must complete
/// exactly once; a successful one adds a latency sample, a failed one
/// counts as an infinite latency.
class OpLedger {
 public:
  explicit OpLedger(std::size_t ops) : completions_(ops, 0) {}

  void ok(std::size_t op, double latency);
  void failed(std::size_t op);

  const Accounting& accounting() const noexcept { return acct_; }
  /// Failure-aware percentile of the latencies (see percentile_with_failures).
  double percentile(double q, double tick) const;
  /// Gate findings: operations that did not complete exactly once, and
  /// accounting that does not close over all operations.
  std::vector<std::string> problems() const;

 private:
  void complete(std::size_t op);

  std::vector<std::uint8_t> completions_;
  std::vector<double> latencies_;
  Accounting acct_;
};

/// Read-your-acknowledged-writes checker for keys that have one writer.
/// Every write to a key carries the next sequence number of that key (its
/// value); a read is stale when its answer is older than the newest write
/// acknowledged before the read was issued.
class AckedWrites {
 public:
  /// Newest acknowledged sequence of `key` (0 = none): sample at read issue.
  std::uint64_t floor(const std::string& key) const;
  /// A write of `seq` to `key` was acknowledged.
  void acked(const std::string& key, std::uint64_t seq);
  /// Next sequence number for a write to `key`.
  std::uint64_t next_seq(const std::string& key) { return ++issued_[key]; }

  /// True when a read issued with `floor_at_issue` answered `value` (the
  /// decimal sequence of the write it saw, or nothing).
  static bool stale(std::uint64_t floor_at_issue,
                    const std::optional<std::string>& value);

 private:
  std::map<std::string, std::uint64_t> acked_;
  std::map<std::string, std::uint64_t> issued_;
};

/// FNV-1a digest of simulated outcomes: identical for identical runs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::string& s);
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// --- trials ---------------------------------------------------------------------

using Values = std::map<std::string, double>;

/// What one trial (one simulated world, built and run once) produces.
struct Trial {
  double setup_s = 0;  // host: Cluster + boot + settle + user environments
  double wall_s = 0;   // host: first load event to end of drain
  /// Simulated outcomes and per-layer counts. Deterministic for a seed:
  /// must be identical across trials, traced or not.
  Values sim;
  /// Per-layer host costs (post-run probes, span self times).
  Values host;
  std::uint64_t digest = 0;
  std::vector<std::string> gate_failures;
};

struct TrialOptions {
  std::uint64_t seed = 1;
  bool traced = false;          // benchmark spans + the program's obs plane
  std::uint32_t run_id = 0;
  std::string artifact_dir;     // traced: where spans and snapshots go
};

Trial run_kernel_faults(const TrialOptions& opts);
Trial run_pws_portal(const TrialOptions& opts);
Trial run_pws_flash(const TrialOptions& opts);

/// Records `what` as a gate failure when `ok` is false.
inline void gate(Trial& t, bool ok, const std::string& what) {
  if (!ok) t.gate_failures.push_back(what);
}

/// Median host cost in microseconds of `reps` calls to `fn`.
template <typename F>
double probe_us(int reps, F&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(std::move(us));
}

/// `prefix` followed by the decimal `n` (e.g. "j42").
std::string numbered(const char* prefix, std::uint64_t n);

/// Writes `text` to `path`; false on error.
bool write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
