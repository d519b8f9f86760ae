// phx_bench: runs one benchmark workload for a host-time budget and prints
// its metrics; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   phx_bench --workload kernel_faults --seed 7 --seconds 20 --trace 0
//
// A run repeats whole trials (build, boot, load, drain) with the same seed
// until the budget is spent and reports host times as medians over trials.
// Simulated outcomes are deterministic for a seed, so every trial must
// reproduce them exactly; any difference fails the correctness gate.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced trials, prints the per-layer metrics, and writes the traced
// artifacts under --out (default .bench_out/<workload>).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0). Host times are medians over trials.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "frac"},
    {"call_p50_sim_ms", "ms"},
    {"call_p999_sim_ms", "ms"},
    {"recovery_p50_sim_s", "s"},
    {"recovery_p90_sim_s", "s"},
    {"jain_fairness", "index"},
};

// Per-layer metrics (--trace 1), named by module.
constexpr MetricDef kPerLayer[] = {
    {"fail_frac", "frac"},
    {"call.samples", "count"},
    {"recovery.samples", "count"},
    {"job_wait_p50_sim_s", "s"},
    {"job_wait_p99_sim_s", "s"},
    {"job_wait.samples", "count"},
    {"sim.events", "count"},
    {"sim.events_per_host_s", "1/s"},
    {"sim.run_host_s", "s"},
    {"sim.pending_max", "count"},
    {"net.msgs_sent", "count"},
    {"net.bytes_sent", "B"},
    {"net.msgs_lost", "count"},
    {"net.msgs_dropped", "count"},
    {"net.bytes.group.heartbeat", "B"},
    {"net.bytes.ckpt.save", "B"},
    {"net.bytes.ckpt.replicate", "B"},
    {"net.bytes.db.delta", "B"},
    {"net.bytes.config.get", "B"},
    {"net.bytes.pws.query_reply", "B"},
    {"net.bytes.pws.submit_batch", "B"},
    {"api.calls", "count"},
    {"api.retries", "count"},
    {"api.reroutes", "count"},
    {"api.timeouts", "count"},
    {"api.exhausted", "count"},
    {"api.unreachable", "count"},
    {"api.duplicate_replies", "count"},
    {"api.issue_host_us", "us"},
    {"runtime.config.received", "count"},
    {"runtime.config.snapshots_saved", "count"},
    {"runtime.config.restores", "count"},
    {"runtime.config.takeovers", "count"},
    {"runtime.config.replays", "count"},
    {"runtime.checkpoint.received", "count"},
    {"runtime.checkpoint.snapshots_saved", "count"},
    {"runtime.checkpoint.restores", "count"},
    {"runtime.checkpoint.takeovers", "count"},
    {"runtime.checkpoint.replays", "count"},
    {"runtime.event.received", "count"},
    {"runtime.event.snapshots_saved", "count"},
    {"runtime.event.restores", "count"},
    {"runtime.event.takeovers", "count"},
    {"runtime.event.replays", "count"},
    {"runtime.bulletin.received", "count"},
    {"runtime.bulletin.snapshots_saved", "count"},
    {"runtime.bulletin.restores", "count"},
    {"runtime.bulletin.takeovers", "count"},
    {"runtime.bulletin.replays", "count"},
    {"checkpoint.entries", "count"},
    {"checkpoint.lost_reads", "count"},
    {"config.stale_reads", "count"},
    {"config.served_after_host_crash", "bool"},
    {"checkpoint.load_host_us", "us"},
    {"group.fault_records", "count"},
    {"group.false_detections", "count"},
    {"group.unrecovered", "count"},
    {"group.detect_p50_sim_s", "s"},
    {"group.diagnose_p50_sim_s", "s"},
    {"group.recover_p50_sim_s", "s"},
    {"group.regroups", "count"},
    {"detector.full_reports", "count"},
    {"detector.delta_reports", "count"},
    {"bulletin.deltas_dropped", "count"},
    {"bulletin.rows_host_us", "us"},
    {"event.published", "count"},
    {"event.registry_host_us", "us"},
    {"pws.submitted", "count"},
    {"pws.completed", "count"},
    {"pws.requeued", "count"},
    {"pws.cancelled", "count"},
    {"pws.admission_denied", "count"},
    {"pws.batches", "count"},
    {"pws.lost_jobs", "count"},
    {"pws.scheduler_alive", "bool"},
    {"pws.checkpoint_bytes_per_job", "B"},
    {"pws.serialize_host_us_per_job", "us"},
    {"pws.deserialize_host_us_per_job", "us"},
    {"gateway.batches_sent", "count"},
    {"gateway.retries", "count"},
    {"gateway.absorbed_cancels", "count"},
    {"gateway.failed", "count"},
    {"gateway.jobs_per_batch", "count"},
    {"gateway.submit_host_us", "us"},
    {"portal.refreshes", "count"},
    {"portal.job_rows", "count"},
    {"rss.hwm_mb", "MB"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.spans", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "phx_bench: %s\nusage: phx_bench --workload "
               "kernel_faults|pws_portal|pws_flash --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.out.empty()) a.out = ".bench_out/" + a.workload;
  return a;
}

double process_hwm_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double value_of(const Values& sim, const Values& host, const std::string& name) {
  if (auto it = sim.find(name); it != sim.end()) return it->second;
  if (auto it = host.find(name); it != host.end()) return it->second;
  return 0.0;
}

/// Median of one host metric over trials.
double median_host(const std::vector<Trial>& trials, const std::string& name) {
  std::vector<double> xs;
  for (const Trial& t : trials) {
    if (auto it = t.host.find(name); it != t.host.end()) xs.push_back(it->second);
  }
  return xs.empty() ? 0.0 : median(xs);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::function<Trial(const TrialOptions&)> run;
  if (args.workload == "kernel_faults") {
    run = run_kernel_faults;
  } else if (args.workload == "pws_portal") {
    run = run_pws_portal;
  } else if (args.workload == "pws_flash") {
    run = run_pws_flash;
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }

  std::vector<Trial> plain, traced;
  const auto start = Clock::now();
  std::uint32_t run_id = 0;
  // At least three untraced trials (two untraced + traced pairs when
  // tracing), so host medians have something to take a median of; then as
  // many as fit the budget.
  const std::size_t min_trials = args.trace ? 2 : 3;
  double hwm_mb = 0;
  while (plain.size() < min_trials || seconds_since(start) < args.seconds) {
    TrialOptions o;
    o.seed = args.seed;
    o.run_id = run_id++;
    plain.push_back(run(o));
    // Later trials reuse a heap the earlier ones fragmented, so memory is
    // taken from the first trial.
    if (plain.size() == 1) hwm_mb = process_hwm_mb();
    std::fprintf(stderr, "trial %u: setup %.3fs wall %.3fs\n", o.run_id,
                 plain.back().setup_s, plain.back().wall_s);
    if (args.trace) {
      o.traced = true;
      o.run_id = run_id++;
      o.artifact_dir = args.out;
      traced.push_back(run(o));
      std::fprintf(stderr, "trial %u (traced): setup %.3fs wall %.3fs\n",
                   o.run_id, traced.back().setup_s, traced.back().wall_s);
    }
  }

  // Correctness: every trial passes its gate and reproduces the first
  // trial's simulated outcomes bit for bit, traced or not.
  std::vector<std::string> problems;
  const Trial& ref = plain.front();
  std::vector<const Trial*> all;
  for (const Trial& t : plain) all.push_back(&t);
  for (const Trial& t : traced) all.push_back(&t);
  for (const Trial* t : all) {
    for (const std::string& g : t->gate_failures) problems.push_back(g);
    if (t->digest != ref.digest) problems.push_back("outcome digest differs between trials of one seed");
    if (t->sim != ref.sim) {
      for (const auto& [name, v] : ref.sim) {
        auto it = t->sim.find(name);
        if (it == t->sim.end() || !(it->second == v || (std::isnan(v) && std::isnan(it->second)))) {
          problems.push_back("simulated metric " + name + " differs between trials");
        }
      }
    }
  }
  for (const std::string& p : problems) std::fprintf(stderr, "GATE: %s\n", p.c_str());

  std::vector<double> setup, wall;
  for (const Trial& t : plain) {
    setup.push_back(t.setup_s);
    wall.push_back(t.wall_s);
  }
  Values host;
  host["setup_s"] = median(setup);
  host["wall_s"] = median(wall);
  host["peak_rss_mb"] = plain.front().host.at("rss.live_peak_mb");
  host["rss.hwm_mb"] = hwm_mb;
  if (args.trace) {
    std::vector<double> traced_wall;
    for (const Trial& t : traced) traced_wall.push_back(t.wall_s);
    host["obs.trace_overhead_frac"] = median(traced_wall) / host["wall_s"] - 1.0;
    for (const char* name : {"sim.run_host_s", "api.issue_host_us",
                             "gateway.submit_host_us", "obs.spans"}) {
      host[name] = median_host(traced, name);
    }
    for (const char* name :
         {"sim.events_per_host_s", "checkpoint.load_host_us", "bulletin.rows_host_us",
          "event.registry_host_us", "pws.serialize_host_us_per_job",
          "pws.deserialize_host_us_per_job"}) {
      host[name] = median_host(plain, name);
    }
  }

  std::string metrics;
  auto emit = [&](const MetricDef& d) {
    const double v = value_of(ref.sim, host, d.name);
    std::printf("%-40s %16.6f %s\n", d.name, v, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  };
  std::printf("workload %s seed %llu: %zu untraced + %zu traced trials\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              plain.size(), traced.size());
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  const auto attempted = static_cast<unsigned long long>(value_of(ref.sim, host, "ops.attempted"));
  const auto failed = static_cast<unsigned long long>(value_of(ref.sim, host, "ops.failed"));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              problems.empty() ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}
