// Simulation-core hot-path microbenchmark.
//
// Every paper figure is produced by pushing millions of events through
// sim::Engine, net::Fabric, and kernel::EventService; this bench pins down
// the per-event / per-send / per-publish cost so regressions (and wins) in
// the three hottest layers show up as a number, not a feeling. Emits
// BENCH_hotpath.json (or argv[1]) for trend tracking across PRs.
//
// Workloads:
//   scheduler  - schedule/fire/cancel mix shaped like the heartbeat storm:
//                every fired event re-arms itself and cancel+reschedules a
//                random pending timer (the watch-daemon grace-reset pattern).
//   fabric     - Fabric::send of heartbeat-sized messages with periodic
//                engine drains; measures the full on-wire accounting path.
//   publish    - EventService::publish_local against a realistic registry
//                (exact, prefix, wildcard, and non-matching subscriptions).
//   dispatch   - per-envelope handler routing: the dense type-id table
//                (Daemon::on, behind ServiceRuntime's counting handle())
//                vs the message_cast if-chain every service hand-rolled
//                before it.
//
// Each workload checks its own result (the scheduler mix never runs dry,
// the fabric delivers, both dispatch paths agree); a failed check exits 1.
//
// Flags:
//   --quick            ~20x smaller iteration counts (CI smoke runs)
//   --trace-json PATH  after the benches, run a booted paper-testbed kernel
//                      with the span store enabled and write its spans as
//                      Chrome trace-event JSON (open in Perfetto); the run
//                      must contain delivered wire hops that parent
//                      service-side serve spans.
//   [out.json]         JSON output path (default BENCH_hotpath.json); any
//                      other `-`-prefixed argument prints usage and exits 2.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "kernel/runtime/service_runtime.h"
#include "net/fabric.h"
#include "obs/span_store.h"
#include "sim/engine.h"

namespace phoenix::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Scheduler mix.
// ---------------------------------------------------------------------------

// Self-sustaining timer storm. Each fire re-arms the slot and resets one
// random other timer (cancel + reschedule), so the live set stays constant
// while the queue carries a realistic fraction of lazily-cancelled ghosts.
// Captures are sized like real daemon lambdas (this + ~24 bytes of state),
// which is what decides whether the callback type heap-allocates.
struct TimerStorm {
  explicit TimerStorm(std::size_t slots) : eng(42), ring(slots) {
    for (std::size_t s = 0; s < ring.size(); ++s) arm(s, 0x9e3779b97f4a7c15ull + s);
  }

  void arm(std::size_t slot, std::uint64_t payload) {
    const std::uint64_t a = payload + 1;
    const std::uint64_t b = payload ^ 0x94d049bb133111ebull;
    ring[slot] = eng.schedule_after(1 + (eng.rng().next() & 1023),
                                    [this, slot, a, b] { fire(slot, a ^ b); });
  }

  void fire(std::size_t slot, std::uint64_t payload) {
    // Reset a random pending timer: the heartbeat-grace pattern.
    const std::size_t victim =
        static_cast<std::size_t>(eng.rng().next() % ring.size());
    eng.cancel(ring[victim]);
    arm(victim, payload ^ victim);
    if (victim != slot) arm(slot, payload + slot);
  }

  sim::Engine eng;
  std::vector<sim::EventId> ring;
};

double bench_scheduler(std::size_t fires) {
  TimerStorm storm(4096);
  const auto t0 = Clock::now();
  const std::size_t ran = storm.eng.run(fires);
  const double secs = seconds_since(t0);
  if (ran != fires) {
    std::fprintf(stderr, "scheduler mix ran dry (%zu)\n", ran);
    std::exit(1);
  }
  return static_cast<double>(ran) / secs;
}

// ---------------------------------------------------------------------------
// Fabric send path.
// ---------------------------------------------------------------------------

struct BenchPingMsg final : net::Message {
  PHOENIX_MESSAGE_TYPE("bench.ping")
  std::size_t wire_size() const noexcept override { return 128; }
};

double bench_fabric(std::size_t sends) {
  sim::Engine eng(7);
  constexpr std::size_t kNodes = 64;
  net::Fabric fabric(eng, kNodes, 3);
  std::uint64_t delivered = 0;
  fabric.set_delivery_handler([&](const net::Envelope&) { ++delivered; });

  const auto msg = std::make_shared<BenchPingMsg>();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < sends; ++i) {
    const net::Address from{net::NodeId{static_cast<std::uint32_t>(i % kNodes)},
                            net::PortId{1}};
    const net::Address to{
        net::NodeId{static_cast<std::uint32_t>((i + 1 + i / kNodes) % kNodes)},
        net::PortId{1}};
    fabric.send(from, to, net::NetworkId{static_cast<std::uint8_t>(i % 3)}, msg);
    if ((i & 2047) == 2047) eng.run();  // drain in-flight deliveries
  }
  eng.run();
  const double secs = seconds_since(t0);
  if (delivered == 0) {
    std::fprintf(stderr, "fabric bench delivered nothing\n");
    std::exit(1);
  }
  return static_cast<double>(sends) / secs;
}

// ---------------------------------------------------------------------------
// EventService publish fan-out.
// ---------------------------------------------------------------------------

double bench_publish(std::size_t publishes) {
  Harness h(paper_testbed());
  h.run_s(2.0);  // let services come up
  auto& es = h.kernel.event_service(net::PartitionId{0});

  // Registry shaped like a busy deployment: most consumers want specific
  // types, a few monitor whole prefixes, one wants everything, and many
  // subscriptions never match the published traffic at all.
  const char* exact_types[] = {"node.failed", "node.recovered", "app.exited",
                               "service.failed"};
  for (std::uint32_t c = 0; c < 96; ++c) {
    kernel::Subscription sub;
    sub.consumer = {net::NodeId{2 + c % 64}, net::PortId{static_cast<std::uint16_t>(20000 + c)}};
    if (c % 8 == 0) {
      sub.types = {"node.*"};
    } else if (c == 1) {
      sub.types = {"*"};
    } else if (c % 2 == 0) {
      sub.types = {exact_types[c % 4]};
    } else {
      sub.types = {"never.published." + std::to_string(c)};
    }
    if (c % 16 == 3) sub.attr_filters = {{"severity", "fatal"}};
    es.subscribe_local(std::move(sub), /*replicate=*/false);
  }

  const char* published[] = {"node.failed", "app.exited", "config.changed",
                             "node.recovered", "service.failed", "app.started"};
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < publishes; ++i) {
    kernel::Event e;
    e.type = published[i % 6];
    e.subject_node = net::NodeId{static_cast<std::uint32_t>(i % 100)};
    e.attrs = {{"severity", (i % 5 == 0) ? "fatal" : "warn"}};
    es.publish_local(std::move(e));
    // Drain in-flight notifies. run() would never return here — the kernel's
    // periodic heartbeats keep the queue non-empty forever — so advance
    // simulated time just past the fabric latency instead.
    if ((i & 255) == 255) h.cluster.engine().run_for(sim::kMillisecond);
  }
  h.cluster.engine().run_for(5 * sim::kMillisecond);
  return static_cast<double>(publishes) / seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Handler dispatch: ServiceRuntime table vs the old message_cast if-chain.
// ---------------------------------------------------------------------------

// Ten message types, the size of a busy service's protocol (the GSD handles
// eight). Traffic round-robins across all of them, so the if-chain pays an
// average of ~5.5 failed dynamic_casts per envelope while the table pays one
// array index regardless of protocol size.
#define BENCH_DISPATCH_MSG(N)                                          \
  struct DispatchMsg##N final : net::Message {                         \
    std::uint64_t payload = N;                                         \
    PHOENIX_MESSAGE_TYPE("bench.dispatch" #N)                          \
    std::size_t wire_size() const noexcept override { return 64; }     \
  };
BENCH_DISPATCH_MSG(0)
BENCH_DISPATCH_MSG(1)
BENCH_DISPATCH_MSG(2)
BENCH_DISPATCH_MSG(3)
BENCH_DISPATCH_MSG(4)
BENCH_DISPATCH_MSG(5)
BENCH_DISPATCH_MSG(6)
BENCH_DISPATCH_MSG(7)
BENCH_DISPATCH_MSG(8)
BENCH_DISPATCH_MSG(9)
#undef BENCH_DISPATCH_MSG

/// The pre-runtime idiom: every service's handle() was a chain of
/// message_cast (dynamic_cast) attempts, one per protocol message.
class IfChainService final : public cluster::Daemon {
 public:
  IfChainService(cluster::Cluster& cluster, net::NodeId node)
      : Daemon(cluster, "bench.ifchain", node, net::PortId{100}) {}

  std::uint64_t sink = 0;

 private:
  void handle(const net::Envelope& env) override {
    const net::Message& m = *env.message;
    if (const auto* p = net::message_cast<DispatchMsg0>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg1>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg2>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg3>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg4>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg5>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg6>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg7>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg8>(m)) { sink += p->payload; return; }
    if (const auto* p = net::message_cast<DispatchMsg9>(m)) { sink += p->payload; return; }
  }
};

/// The same protocol on the dense type-id table, through the runtime's
/// counting handle() as every kernel service takes it (standalone: no
/// directory/params, so only dispatch and counters are in play).
class TableService final : public kernel::ServiceRuntime {
 public:
  TableService(cluster::Cluster& cluster, net::NodeId node)
      : ServiceRuntime(cluster, "bench.table", node, net::PortId{101},
                       /*directory=*/nullptr, /*params=*/nullptr, Options{}) {
    on<DispatchMsg0>([this](const DispatchMsg0& m) { sink += m.payload; });
    on<DispatchMsg1>([this](const DispatchMsg1& m) { sink += m.payload; });
    on<DispatchMsg2>([this](const DispatchMsg2& m) { sink += m.payload; });
    on<DispatchMsg3>([this](const DispatchMsg3& m) { sink += m.payload; });
    on<DispatchMsg4>([this](const DispatchMsg4& m) { sink += m.payload; });
    on<DispatchMsg5>([this](const DispatchMsg5& m) { sink += m.payload; });
    on<DispatchMsg6>([this](const DispatchMsg6& m) { sink += m.payload; });
    on<DispatchMsg7>([this](const DispatchMsg7& m) { sink += m.payload; });
    on<DispatchMsg8>([this](const DispatchMsg8& m) { sink += m.payload; });
    on<DispatchMsg9>([this](const DispatchMsg9& m) { sink += m.payload; });
  }

  std::uint64_t sink = 0;
};

struct DispatchRates {
  double table_per_sec = 0;
  double ifchain_per_sec = 0;
};

DispatchRates bench_dispatch(std::size_t deliveries) {
  cluster::ClusterSpec spec;
  spec.partitions = 1;
  spec.computes_per_partition = 1;
  spec.backups_per_partition = 0;
  spec.networks = 1;
  cluster::Cluster cluster(spec);
  IfChainService chain(cluster, cluster.server_node(net::PartitionId{0}));
  TableService table(cluster, cluster.server_node(net::PartitionId{0}));
  chain.start();
  table.start();

  std::vector<net::Envelope> envs;
  const net::Address from{net::NodeId{0}, net::PortId{99}};
  auto add = [&](std::shared_ptr<const net::Message> msg) {
    envs.push_back(net::Envelope{from, {}, net::NetworkId{0}, std::move(msg)});
  };
  add(std::make_shared<DispatchMsg0>());
  add(std::make_shared<DispatchMsg1>());
  add(std::make_shared<DispatchMsg2>());
  add(std::make_shared<DispatchMsg3>());
  add(std::make_shared<DispatchMsg4>());
  add(std::make_shared<DispatchMsg5>());
  add(std::make_shared<DispatchMsg6>());
  add(std::make_shared<DispatchMsg7>());
  add(std::make_shared<DispatchMsg8>());
  add(std::make_shared<DispatchMsg9>());

  DispatchRates rates;
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < deliveries; ++i) table.deliver(envs[i % 10]);
    rates.table_per_sec = static_cast<double>(deliveries) / seconds_since(t0);
  }
  {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < deliveries; ++i) chain.deliver(envs[i % 10]);
    rates.ifchain_per_sec = static_cast<double>(deliveries) / seconds_since(t0);
  }
  if (table.sink != chain.sink) {
    std::fprintf(stderr, "dispatch checksum mismatch (%llu vs %llu)\n",
                 static_cast<unsigned long long>(table.sink),
                 static_cast<unsigned long long>(chain.sink));
    std::exit(1);
  }
  return rates;
}

// ---------------------------------------------------------------------------
// Traced kernel run: Chrome trace-event export.
// ---------------------------------------------------------------------------

// A booted paper-testbed kernel run with the span store on, so the exported
// trace holds real kernel traffic: wire hops and the serve spans they parent
// on the receiving service. Deliberately separate from the timed runs:
// tracing heap-allocates per send and must never touch the headline numbers.
bool export_trace_json(const char* path) {
  Harness h(paper_testbed());
  obs::SpanStore& spans = h.cluster.span_store();
  spans.set_enabled(true);
  h.run_s(5.0);

  const auto recorded = spans.spans();
  std::unordered_set<std::uint64_t> delivered_hops;
  for (const auto& s : recorded) {
    if (s.name.starts_with("hop:") && s.outcome == "delivered") {
      delivered_hops.insert(s.span_id);
    }
  }
  std::size_t chained_serves = 0;
  for (const auto& s : recorded) {
    if (s.name.starts_with("serve:") && delivered_hops.count(s.parent_span_id)) {
      ++chained_serves;
    }
  }
  std::printf("trace      : %zu spans (%zu delivered hops, %zu serves under a hop) -> %s\n",
              recorded.size(), delivered_hops.size(), chained_serves, path);
  if (chained_serves == 0) {
    std::fprintf(stderr, "trace run produced no hop -> serve chain\n");
    return false;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  const std::string json = spans.to_chrome_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);
  const auto args = phoenix::bench::parse_bench_args(argc, argv, "BENCH_hotpath.json",
                                                     /*takes_trace_json=*/true);
  const char* out_path = args.out_path;
  const char* trace_path = args.trace_path;
  const bool quick = args.quick;
  const std::size_t scale_div = quick ? 20 : 1;

  const double events_per_sec =
      phoenix::bench::bench_scheduler(2'000'000 / scale_div);
  std::printf("scheduler mix : %12.0f events/s\n", events_per_sec);
  const double sends_per_sec = phoenix::bench::bench_fabric(2'000'000 / scale_div);
  std::printf("fabric send   : %12.0f sends/s\n", sends_per_sec);
  const double publishes_per_sec =
      phoenix::bench::bench_publish(200'000 / scale_div);
  std::printf("es publish    : %12.0f publishes/s\n", publishes_per_sec);
  const auto dispatch = phoenix::bench::bench_dispatch(4'000'000 / scale_div);
  std::printf("dispatch table: %12.0f msgs/s\n", dispatch.table_per_sec);
  std::printf("dispatch chain: %12.0f msgs/s\n", dispatch.ifchain_per_sec);

  if (trace_path != nullptr && !phoenix::bench::export_trace_json(trace_path)) {
    return 1;
  }

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"engine_hotpath\",\n"
                 "  \"quick\": %s,\n"
                 "  \"events_per_sec\": %.0f,\n"
                 "  \"sends_per_sec\": %.0f,\n"
                 "  \"publishes_per_sec\": %.0f,\n"
                 "  \"dispatch_table_per_sec\": %.0f,\n"
                 "  \"dispatch_ifchain_per_sec\": %.0f\n"
                 "}\n",
                 quick ? "true" : "false", events_per_sec, sends_per_sec,
                 publishes_per_sec, dispatch.table_per_sec,
                 dispatch.ifchain_per_sec);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
