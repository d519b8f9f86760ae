// Shared helpers for the paper-reproduction benches.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>
#include <string>

#include "faults/fault_injector.h"
#include "faults/scenario.h"
#include "kernel/kernel.h"

namespace phoenix::bench {

/// Command line shared by the JSON-emitting benches:
/// `[--quick] [--trace-json FILE] [out.json]`.
struct BenchArgs {
  bool quick = false;
  const char* out_path = nullptr;
  const char* trace_path = nullptr;  // --trace-json; only where accepted
};

/// Parses argv for a bench writing `default_out`. An unknown `-`-prefixed
/// argument, or `--trace-json` without a value (or where the bench does not
/// take it), prints usage to stderr and exits 2 before anything runs, so a
/// mistyped flag never becomes the output file name.
inline BenchArgs parse_bench_args(int argc, char** argv, const char* default_out,
                                  bool takes_trace_json = false) {
  BenchArgs args;
  args.out_path = default_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (takes_trace_json && std::strcmp(argv[i], "--trace-json") == 0 &&
               i + 1 < argc) {
      args.trace_path = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "%s: unknown flag or missing value: '%s'\n"
                   "usage: %s [--quick]%s [out.json]\n",
                   argv[0], argv[i], argv[0],
                   takes_trace_json ? " [--trace-json FILE]" : "");
      std::exit(2);
    } else {
      args.out_path = argv[i];
    }
  }
  return args;
}

/// The paper's §5.1 testbed: 136 nodes in Dawning 4000A, 16 computing
/// nodes and 1 server node per partition, 8 partitions, 30 s heartbeat.
inline cluster::ClusterSpec paper_testbed() {
  cluster::ClusterSpec spec;
  spec.partitions = 8;
  spec.computes_per_partition = 16;
  spec.backups_per_partition = 0;
  spec.networks = 3;
  spec.cpus_per_node = 4;
  return spec;
}

struct Harness {
  explicit Harness(cluster::ClusterSpec spec, kernel::FtParams params = {})
      : cluster(spec), kernel(cluster, params), injector(cluster) {
    kernel.boot();
  }

  void run_s(double seconds) {
    cluster.engine().run_for(sim::from_seconds(seconds));
  }

  /// Advances to just after `node`'s next heartbeat — the paper's
  /// fault-injection point.
  void run_until_after_heartbeat(net::NodeId node) {
    const auto& wd = kernel.watch_daemon(node);
    const auto sent = wd.heartbeats_sent();
    while (wd.heartbeats_sent() == sent) {
      if (!cluster.engine().step()) break;
    }
    cluster.engine().run_for(10 * sim::kMillisecond);
  }

  cluster::Cluster cluster;
  kernel::PhoenixKernel kernel;
  faults::FaultInjector injector;
};

struct Timing {
  double detect_s = 0;
  double diagnose_s = 0;
  double recover_s = 0;
  double sum() const { return detect_s + diagnose_s + recover_s; }
};

inline Timing timing_from(const kernel::FaultRecord& record,
                          sim::SimTime injected_at) {
  Timing t;
  t.detect_s = sim::to_seconds(record.detected_at - injected_at);
  t.diagnose_s = sim::to_seconds(record.diagnosed_at - record.detected_at);
  t.recover_s =
      record.recovered ? sim::to_seconds(record.recovered_at - record.diagnosed_at) : -1;
  return t;
}

inline std::string fmt_seconds(double s) {
  char buf[32];
  if (s < 0) {
    std::snprintf(buf, sizeof(buf), "unrecovered");
  } else if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  }
  return buf;
}

inline void print_fault_table_header(const char* title) {
  std::printf("%s\n", title);
  std::printf("%-12s | %-21s | %-21s | %-21s | %-10s\n", "Fault", "Detect (paper)",
              "Diagnose (paper)", "Recover (paper)", "Sum");
  std::printf("%s\n", std::string(98, '-').c_str());
}

inline void print_fault_row(const char* fault, const Timing& t,
                            const char* paper_detect, const char* paper_diagnose,
                            const char* paper_recover) {
  std::printf("%-12s | %-9s (%-9s) | %-9s (%-9s) | %-9s (%-9s) | %s\n", fault,
              fmt_seconds(t.detect_s).c_str(), paper_detect,
              fmt_seconds(t.diagnose_s).c_str(), paper_diagnose,
              fmt_seconds(t.recover_s).c_str(), paper_recover,
              fmt_seconds(t.sum()).c_str());
}

/// Runs one fault scenario: settle, inject right after the victim node's
/// heartbeat, wait, and return the newest matching fault record's timings.
inline std::optional<Timing> run_fault_scenario(
    const kernel::FtParams& params, net::NodeId align_node,
    const std::function<sim::SimTime(Harness&)>& inject,
    const std::string& component, kernel::FaultKind kind,
    double settle_s = 65.0, double observe_s = 120.0) {
  Harness h(paper_testbed(), params);
  h.run_s(settle_s);
  h.kernel.fault_log().clear();
  h.run_until_after_heartbeat(align_node);
  const sim::SimTime injected = inject(h);
  h.run_s(observe_s);
  const auto record = h.kernel.fault_log().last(component, kind);
  if (!record) return std::nullopt;
  return timing_from(*record, injected);
}

/// Scenario flavour of run_fault_scenario: `script` authors a declarative
/// faults::Scenario against the settled harness, which is then compiled at
/// the aligned injection instant. Timings are measured from the scenario
/// base (its offset-0 steps fire at that same simulated instant the
/// imperative overload injects at, so the two flavours report identical
/// numbers for single-shot faults).
inline std::optional<Timing> run_fault_scenario(
    const kernel::FtParams& params, net::NodeId align_node,
    const std::function<void(Harness&, faults::Scenario&)>& script,
    const std::string& component, kernel::FaultKind kind,
    double settle_s = 65.0, double observe_s = 120.0) {
  Harness h(paper_testbed(), params);
  h.run_s(settle_s);
  h.kernel.fault_log().clear();
  h.run_until_after_heartbeat(align_node);
  faults::Scenario scenario;
  script(h, scenario);
  const sim::SimTime injected = h.cluster.now();
  scenario.apply(h.injector, injected);
  h.run_s(observe_s + sim::to_seconds(scenario.duration()));
  const auto record = h.kernel.fault_log().last(component, kind);
  if (!record) return std::nullopt;
  return timing_from(*record, injected);
}

/// Mean and standard deviation over repeated trials.
struct TrialStats {
  double mean = 0;
  double stddev = 0;
  std::size_t n = 0;
};

inline TrialStats stats_of(const std::vector<double>& xs) {
  TrialStats s;
  s.n = xs.size();
  if (xs.empty()) return s;
  for (double x : xs) s.mean += x;
  s.mean /= static_cast<double>(xs.size());
  for (double x : xs) s.stddev += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1
                 ? std::sqrt(s.stddev / static_cast<double>(xs.size() - 1))
                 : 0.0;
  return s;
}

/// Repeats a fault scenario with RANDOM injection phase (uniform within the
/// heartbeat period, rather than the paper's right-after-a-heartbeat worst
/// case) and returns detect/diagnose/recover statistics.
struct FaultTrialResult {
  TrialStats detect;
  TrialStats diagnose;
  TrialStats recover;
};

inline FaultTrialResult run_fault_trials(
    const kernel::FtParams& params,
    const std::function<sim::SimTime(Harness&)>& inject,
    const std::string& component, kernel::FaultKind kind, std::size_t trials,
    double settle_s = 65.0, double observe_s = 120.0) {
  std::vector<double> detect, diagnose, recover;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    cluster::ClusterSpec spec = paper_testbed();
    spec.seed = 1000 + trial;
    Harness h(spec, params);
    h.run_s(settle_s);
    h.kernel.fault_log().clear();
    // Random phase within one heartbeat period.
    sim::Rng phase_rng(90 + trial);
    h.run_s(phase_rng.uniform(0.0, sim::to_seconds(params.heartbeat_interval)));
    const sim::SimTime injected = inject(h);
    h.run_s(observe_s);
    const auto record = h.kernel.fault_log().last(component, kind);
    if (!record) continue;
    const Timing t = timing_from(*record, injected);
    detect.push_back(t.detect_s);
    diagnose.push_back(t.diagnose_s);
    if (t.recover_s >= 0) recover.push_back(t.recover_s);
  }
  return FaultTrialResult{stats_of(detect), stats_of(diagnose), stats_of(recover)};
}

}  // namespace phoenix::bench
