// Batched multi-tenant submission gateway benchmark (DESIGN.md §13).
//
// Models the paper's portal-scale grid scenario: a large tenant population
// (10k users in --quick, 100k in the full run) submitting small jobs to one
// PWS scheduler as a Poisson stream with a 10x flash-crowd window, a few
// job-spamming tenants, and a slice of submissions cancelled almost
// immediately (fat-fingered runs). Two modes over the same generated load:
//
//   per-job  - the historical path: one PwsSubmitMsg RPC per submission
//              from a client node, each paying its own checkpoint save and
//              scheduling pass; cancels are per-job PwsCancelMsg RPCs.
//   gateway  - submissions flow through the SubmissionGateway: weighted
//              fair batches on a 10 ms window, one replay-deduplicated
//              PwsSubmitBatchMsg per batch, window-coalesced checkpoints,
//              coalesced scheduling passes, token-bucket admission control,
//              immediate cancels absorbed client-side.
//
// Reported per mode: wall-clock submission throughput (jobs/s) over the
// whole trace AND sustained inside the flash window, scheduler
// submit->scheduled latency percentiles (pws.schedule_latency_us), gateway
// submit->verdict percentiles (pws.gateway.submit_latency_us), and the Jain
// fairness index over per-tenant acceptance ratios.
//
// Acceptance: gateway fairness >= 0.9 (both modes' runs); the full run must
// additionally show >= 5x gateway throughput over per-job at 100k users.
//
// Usage: pws_gateway [--quick] [out.json]   (default out: BENCH_pws_gateway.json)
#include <algorithm>
#include <cstdio>
#include <chrono>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "pws/gateway.h"
#include "pws/pws.h"
#include "workload/tenant_load.h"

namespace phoenix::bench {
namespace {

struct GatewayBenchParams {
  bool quick = false;
  std::size_t partitions = 4;
  std::size_t computes_per_partition = 128;  // 512 compute nodes
  workload::TenantLoadParams load;
  double admission_rate = 2.0;   // jobs/s sustained per tenant (gateway mode)
  double admission_burst = 16.0;
  double drain_s = 15.0;
};

GatewayBenchParams make_params(bool quick) {
  GatewayBenchParams p;
  p.quick = quick;
  p.load.horizon = 60 * sim::kSecond;
  p.load.flashes = {{20 * sim::kSecond, 30 * sim::kSecond, 10.0}};
  p.load.spammer_fraction = 0.001;  // 1 in 1000 tenants spams...
  p.load.spammer_boost = 100.0;     // ...at 100x a normal tenant's rate
  p.load.cancel_fraction = 0.03;
  p.load.cancel_delay = 1 * sim::kMillisecond;
  p.load.mean_duration_s = 0.02;
  p.load.min_duration_s = 0.005;
  if (quick) {
    p.partitions = 4;
    p.computes_per_partition = 32;  // 128 compute nodes
    p.load.tenant_count = 10'000;
    p.load.base_rate = 400.0;       // 4000 jobs/s during the flash window
  } else {
    p.load.tenant_count = 100'000;
    p.load.base_rate = 1000.0;      // 10000 jobs/s during the flash window
  }
  return p;
}

cluster::ClusterSpec spec_of(const GatewayBenchParams& p) {
  cluster::ClusterSpec s;
  s.partitions = p.partitions;
  s.computes_per_partition = p.computes_per_partition;
  s.backups_per_partition = 0;
  return s;
}

pws::PwsConfig pws_config_of(const GatewayBenchParams& p, const Harness& h,
                             bool batched) {
  pws::PwsConfig config;
  pws::PoolConfig pool;
  pool.name = "batch";
  pool.policy = pws::SchedPolicy::kFifo;
  for (std::uint32_t part = 0; part < p.partitions; ++part) {
    for (net::NodeId n : h.cluster.compute_nodes(net::PartitionId{part})) {
      pool.nodes.push_back(n);
    }
  }
  config.pools = {pool};
  // Both modes retire terminal jobs: with 10^5 submissions the historical
  // keep-everything table would make every per-job checkpoint O(total jobs)
  // and the comparison would measure retention, not the submission path.
  config.retain_terminal_jobs = false;
  if (batched) {
    config.checkpoint_interval = 10 * sim::kMillisecond;
    config.admission_rate = p.admission_rate;
    config.admission_burst = p.admission_burst;
  }
  return config;
}

/// Per-job wire client: one PwsSubmitMsg RPC per submission (the historical
/// portal behaviour), one PwsCancelMsg RPC per cancel.
class PerJobClient final : public cluster::Daemon {
 public:
  PerJobClient(cluster::Cluster& cluster, net::NodeId node,
               net::Address scheduler, std::vector<std::uint32_t>& accepted,
               std::size_t& cancel_requests)
      : Daemon(cluster, "pws.perjob_client", node, cluster::ports::kClient),
        scheduler_(scheduler),
        accepted_(accepted),
        cancel_requests_(cancel_requests) {
    start();
  }

  void submit(const pws::SubmitRequest& request, std::uint32_t tenant,
              sim::SimTime cancel_after) {
    auto msg = std::make_shared<pws::PwsSubmitMsg>();
    msg->request = request;
    msg->reply_to = address();
    msg->request_id = next_id_++;
    pending_.emplace(msg->request_id, Pending{tenant, cancel_after});
    send_any(scheduler_, std::move(msg));
  }

 private:
  struct Pending {
    std::uint32_t tenant = 0;
    sim::SimTime cancel_after = 0;
  };

  void handle(const net::Envelope& env) override {
    const auto* reply = net::message_cast<pws::PwsSubmitReplyMsg>(*env.message);
    if (reply == nullptr) return;
    auto it = pending_.find(reply->request_id);
    if (it == pending_.end()) return;
    const Pending p = it->second;
    pending_.erase(it);
    if (!reply->accepted) return;
    ++accepted_[p.tenant];
    if (p.cancel_after == 0) return;
    const pws::JobId id = reply->job_id;
    engine().schedule_after(p.cancel_after, [this, id] {
      if (!alive()) return;
      ++cancel_requests_;
      auto cancel = std::make_shared<pws::PwsCancelMsg>();
      cancel->job_id = id;
      cancel->reply_to = address();
      cancel->request_id = next_id_++;
      send_any(scheduler_, std::move(cancel));
    });
  }

  net::Address scheduler_;
  std::vector<std::uint32_t>& accepted_;
  std::size_t& cancel_requests_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

struct ModeResult {
  const char* mode = "";
  std::size_t submissions = 0;
  std::size_t accepted = 0;
  std::size_t denied = 0;
  std::size_t cancel_requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t batches = 0;          // gateway mode only
  std::uint64_t absorbed_cancels = 0; // gateway mode only
  double wall_s = 0;
  double jobs_per_s = 0;
  double flash_jobs_per_s = 0;  // sustained rate inside the flash window
  double fairness = 1.0;
  // submit->scheduled (scheduler) and submit->verdict (gateway) latencies.
  double sched_p50_us = 0, sched_p95_us = 0, sched_p99_us = 0;
  double gw_p50_us = 0, gw_p95_us = 0, gw_p99_us = 0;
};

/// Wall-clock rate of submissions processed inside the flash window.
struct FlashProbe {
  std::chrono::steady_clock::time_point start_wall, end_wall;
  std::size_t start_count = 0, end_count = 0;

  void arm(sim::Engine& engine, const workload::FlashWindow& window,
           const std::size_t& counter) {
    engine.schedule_after(window.start, [this, &counter] {
      start_wall = std::chrono::steady_clock::now();
      start_count = counter;
    });
    engine.schedule_after(window.end, [this, &counter] {
      end_wall = std::chrono::steady_clock::now();
      end_count = counter;
    });
  }

  double rate() const {
    const double s = std::chrono::duration<double>(end_wall - start_wall).count();
    return s > 0 ? static_cast<double>(end_count - start_count) / s : 0;
  }
};

double jain_index(const std::vector<std::uint32_t>& submitted,
                  const std::vector<std::uint32_t>& accepted) {
  double sum = 0, sum_sq = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    if (submitted[i] == 0) continue;
    const double x =
        static_cast<double>(accepted[i]) / static_cast<double>(submitted[i]);
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n == 0 || sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sum_sq);
}

void fill_latencies(const obs::Registry& metrics, ModeResult& out) {
  if (const obs::Histogram* sched =
          metrics.find_histogram("pws.schedule_latency_us")) {
    out.sched_p50_us = sched->percentile(0.50);
    out.sched_p95_us = sched->percentile(0.95);
    out.sched_p99_us = sched->percentile(0.99);
  }
  if (const obs::Histogram* gw =
          metrics.find_histogram("pws.gateway.submit_latency_us")) {
    out.gw_p50_us = gw->percentile(0.50);
    out.gw_p95_us = gw->percentile(0.95);
    out.gw_p99_us = gw->percentile(0.99);
  }
}

ModeResult run_per_job(const GatewayBenchParams& params,
                       const std::vector<workload::TenantEvent>& events) {
  Harness h(spec_of(params));
  h.cluster.metrics().set_enabled(true);
  pws::PwsSystem pws_system(h.kernel, pws_config_of(params, h, false));
  h.run_s(2.0);

  ModeResult out;
  out.mode = "per-job";
  std::vector<std::uint32_t> submitted(params.load.tenant_count, 0);
  std::vector<std::uint32_t> accepted(params.load.tenant_count, 0);
  PerJobClient client(h.cluster,
                      h.cluster.compute_nodes(net::PartitionId{0})[0],
                      pws_system.scheduler().address(), accepted,
                      out.cancel_requests);

  auto& engine = h.cluster.engine();
  for (const workload::TenantEvent& ev : events) {
    engine.schedule_after(ev.arrival, [&, ev] {
      pws::SubmitRequest r;
      r.name = "j";
      r.name += std::to_string(out.submissions);
      r.user = workload::tenant_name(ev.tenant);
      r.pool = "batch";
      r.nodes = ev.nodes;
      r.duration = ev.duration;
      ++out.submissions;
      ++submitted[ev.tenant];
      client.submit(r, ev.tenant, ev.cancel_after);
    });
  }
  FlashProbe flash;
  flash.arm(engine, params.load.flashes.front(), out.submissions);

  const auto wall_start = std::chrono::steady_clock::now();
  h.run_s(sim::to_seconds(params.load.horizon) + params.drain_s);
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();

  out.accepted = 0;
  for (std::uint32_t a : accepted) out.accepted += a;
  out.jobs_per_s =
      out.wall_s > 0 ? static_cast<double>(out.submissions) / out.wall_s : 0;
  out.flash_jobs_per_s = flash.rate();
  out.fairness = jain_index(submitted, accepted);
  out.completed = pws_system.scheduler().stats().completed;
  out.cancelled = pws_system.scheduler().stats().cancelled;
  fill_latencies(h.cluster.metrics(), out);
  return out;
}

ModeResult run_gateway(const GatewayBenchParams& params,
                       const std::vector<workload::TenantEvent>& events) {
  Harness h(spec_of(params));
  h.cluster.metrics().set_enabled(true);
  pws::PwsSystem pws_system(h.kernel, pws_config_of(params, h, true));
  h.run_s(2.0);

  pws::GatewayConfig gw_config;
  gw_config.scheduler = pws_system.scheduler().address();
  pws::SubmissionGateway gateway(
      h.cluster, h.cluster.compute_nodes(net::PartitionId{0})[0], gw_config);

  ModeResult out;
  out.mode = "gateway";
  std::vector<std::uint32_t> submitted(params.load.tenant_count, 0);
  std::vector<std::uint32_t> accepted(params.load.tenant_count, 0);
  // Cancel bookkeeping for submissions that outrun their cancel request.
  std::unordered_map<pws::SubmissionGateway::Ticket, pws::JobId> job_of;
  std::unordered_set<pws::SubmissionGateway::Ticket> cancel_wanted;

  auto& engine = h.cluster.engine();
  for (const workload::TenantEvent& ev : events) {
    engine.schedule_after(ev.arrival, [&, ev] {
      pws::SubmitRequest r;
      r.name = "j";
      r.name += std::to_string(out.submissions);
      r.user = workload::tenant_name(ev.tenant);
      r.pool = "batch";
      r.nodes = ev.nodes;
      r.duration = ev.duration;
      ++out.submissions;
      ++submitted[ev.tenant];
      const bool will_cancel = ev.cancel_after > 0;
      const auto ticket = gateway.submit(
          r, [&, tenant = ev.tenant, will_cancel](
                 pws::SubmissionGateway::Ticket tk,
                 const pws::BatchSubmitResult& res) {
            if (res.status == pws::SubmitStatus::kAccepted) {
              ++accepted[tenant];
              if (!will_cancel) return;
              if (cancel_wanted.erase(tk) > 0) {
                ++out.cancel_requests;
                gateway.cancel_job(res.job_id);
              } else {
                job_of[tk] = res.job_id;
              }
            }
          });
      if (will_cancel) {
        engine.schedule_after(ev.cancel_after, [&, ticket] {
          if (gateway.cancel(ticket)) return;  // absorbed in the window
          auto it = job_of.find(ticket);
          if (it != job_of.end()) {
            ++out.cancel_requests;
            gateway.cancel_job(it->second);
            job_of.erase(it);
          } else {
            cancel_wanted.insert(ticket);  // verdict still in flight
          }
        });
      }
    });
  }
  FlashProbe flash;
  flash.arm(engine, params.load.flashes.front(), out.submissions);

  const auto wall_start = std::chrono::steady_clock::now();
  h.run_s(sim::to_seconds(params.load.horizon) + params.drain_s);
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();

  out.accepted = gateway.stats().accepted;
  out.denied = gateway.stats().denied;
  out.batches = gateway.stats().batches_sent;
  out.absorbed_cancels = gateway.stats().absorbed_cancels;
  out.jobs_per_s =
      out.wall_s > 0 ? static_cast<double>(out.submissions) / out.wall_s : 0;
  out.flash_jobs_per_s = flash.rate();
  out.fairness = jain_index(submitted, accepted);
  out.completed = pws_system.scheduler().stats().completed;
  out.cancelled = pws_system.scheduler().stats().cancelled;
  fill_latencies(h.cluster.metrics(), out);
  return out;
}

void print_mode(const ModeResult& r) {
  std::printf(
      "%-8s | %9zu | %11.0f | %11.0f | %8.3f | %9.0f | %9.0f | %9.0f\n",
      r.mode, r.submissions, r.jobs_per_s, r.flash_jobs_per_s, r.fairness,
      r.sched_p50_us, r.sched_p99_us, r.gw_p99_us);
}

void print_json(std::FILE* f, const ModeResult& r, const char* indent) {
  std::fprintf(
      f,
      "%s{\"mode\": \"%s\", \"submissions\": %zu, \"accepted\": %zu,"
      " \"denied\": %zu, \"completed\": %llu, \"cancelled\": %llu,\n"
      "%s \"cancel_requests\": %zu, \"batches\": %llu,"
      " \"absorbed_cancels\": %llu,\n"
      "%s \"wall_s\": %.3f, \"jobs_per_s\": %.0f, \"flash_jobs_per_s\": %.0f,"
      " \"fairness\": %.4f,\n"
      "%s \"sched_latency_us\": {\"p50\": %.0f, \"p95\": %.0f, \"p99\": %.0f},"
      " \"gateway_latency_us\": {\"p50\": %.0f, \"p95\": %.0f, \"p99\": %.0f}}",
      indent, r.mode, r.submissions, r.accepted, r.denied,
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.cancelled), indent, r.cancel_requests,
      static_cast<unsigned long long>(r.batches),
      static_cast<unsigned long long>(r.absorbed_cancels), indent, r.wall_s,
      r.jobs_per_s, r.flash_jobs_per_s, r.fairness, indent, r.sched_p50_us,
      r.sched_p95_us, r.sched_p99_us, r.gw_p50_us, r.gw_p95_us, r.gw_p99_us);
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  using namespace phoenix;
  using namespace phoenix::bench;
  std::setvbuf(stdout, nullptr, _IONBF, 0);

  const BenchArgs args = parse_bench_args(argc, argv, "BENCH_pws_gateway.json");
  const bool quick = args.quick;
  const char* out_path = args.out_path;

  const GatewayBenchParams params = make_params(quick);
  const std::vector<workload::TenantEvent> events =
      generate_tenant_load(params.load);
  std::printf("pws_gateway (%s): %zu tenants, %zu compute nodes, %zu"
              " submissions over %.0fs (flash 10x in [20s,30s))\n\n",
              quick ? "quick" : "full",
              static_cast<std::size_t>(params.load.tenant_count),
              params.partitions * params.computes_per_partition, events.size(),
              sim::to_seconds(params.load.horizon));
  std::printf("%-8s | %9s | %11s | %11s | %8s | %9s | %9s | %9s\n", "mode",
              "submits", "jobs/s wall", "flash j/s", "fairness", "sch p50us",
              "sch p99us", "gw p99us");
  std::printf("%s\n", std::string(94, '-').c_str());

  const ModeResult per_job = run_per_job(params, events);
  print_mode(per_job);
  const ModeResult gateway = run_gateway(params, events);
  print_mode(gateway);

  const double speedup =
      per_job.jobs_per_s > 0 ? gateway.jobs_per_s / per_job.jobs_per_s : 0;
  const double flash_speedup = per_job.flash_jobs_per_s > 0
                                   ? gateway.flash_jobs_per_s /
                                         per_job.flash_jobs_per_s
                                   : 0;
  std::printf("\nspeedup: %.1fx whole-trace, %.1fx sustained in the flash"
              " window; gateway sent %llu batches, absorbed %llu cancels"
              " client-side, denied %zu spam submissions\n",
              speedup, flash_speedup,
              static_cast<unsigned long long>(gateway.batches),
              static_cast<unsigned long long>(gateway.absorbed_cancels),
              gateway.denied);

  bool ok = true;
  if (gateway.fairness < 0.9) {
    std::fprintf(stderr, "FAIL: gateway fairness %.4f < 0.9\n",
                 gateway.fairness);
    ok = false;
  }
  if (!quick && flash_speedup < 5.0) {
    std::fprintf(stderr, "FAIL: gateway flash-window speedup %.1fx < 5x\n",
                 flash_speedup);
    ok = false;
  }

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"pws_gateway\",\n  \"config\": \"%s\",\n"
                 "  \"tenants\": %zu,\n  \"events\": %zu,\n  \"modes\": [\n",
                 quick ? "quick" : "full",
                 static_cast<std::size_t>(params.load.tenant_count),
                 events.size());
    print_json(f, per_job, "    ");
    std::fprintf(f, ",\n");
    print_json(f, gateway, "    ");
    std::fprintf(f, "\n  ],\n  \"speedup\": %.2f,\n  \"flash_speedup\": %.2f\n}\n",
                 speedup, flash_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    ok = false;
  }
  return ok ? 0 : 1;
}
