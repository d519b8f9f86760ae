#include "world.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "kernel/bulletin/data_bulletin.h"
#include "kernel/checkpoint/checkpoint_service.h"
#include "kernel/config/configuration_service.h"
#include "kernel/detector/detectors.h"
#include "kernel/event/event_service.h"

namespace perfbench {

World::World(const cluster::ClusterSpec& spec, const kernel::FtParams& params,
             SpanRecorder& spans_in, bool traced)
    : spans(spans_in) {
  {
    auto s = spans.scope("cluster.construct");
    cluster = std::make_unique<cluster::Cluster>(spec);
  }
  if (traced) {
    cluster->metrics().set_enabled(true);
    cluster->span_store().set_enabled(true);
  }
  {
    auto s = spans.scope("kernel.boot");
    kernel = std::make_unique<kernel::PhoenixKernel>(*cluster, params);
    kernel->boot();
  }
  injector = std::make_unique<faults::FaultInjector>(*cluster);
}

void World::run(sim::SimTime total, sim::SimTime slice) {
  auto& engine = cluster->engine();
  const sim::SimTime end = engine.now() + total;
  while (engine.now() < end) {
    const sim::SimTime step = std::min(slice, end - engine.now());
    {
      auto s = spans.scope("sim.run_for");
      engine.run_for(step);
    }
    pending_max = std::max<std::uint64_t>(pending_max, engine.pending());
    if (engine.now() >= next_rss_sample_) {
      next_rss_sample_ = engine.now() + sim::kSecond;
      rss_max_mb = std::max(rss_max_mb, resident_mb());
    }
  }
}

double resident_mb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const bool ok = std::fscanf(f, "%ld %ld", &pages, &resident) == 2;
  std::fclose(f);
  return ok ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0
            : 0.0;
}

void World::align_to_heartbeat(net::NodeId node) {
  auto s = spans.scope("sim.run_for");
  auto& engine = cluster->engine();
  const auto& wd = kernel->watch_daemon(node);
  const auto sent = wd.heartbeats_sent();
  const sim::SimTime limit =
      engine.now() + kernel->params().heartbeat_interval + sim::kSecond;
  while (wd.heartbeats_sent() == sent && engine.now() < limit) {
    if (!engine.step()) break;
  }
  engine.run_for(10 * sim::kMillisecond);
}

void World::repair_node(net::NodeId node) {
  auto s = spans.scope("faults.restore_node");
  injector->restore_node(node);
  kernel->watch_daemon(node).start();
  kernel->detector(node).start();
  kernel->ppm(node).start();
}

RecoveryStats match_faults(const kernel::FaultLog& log,
                           const std::vector<Injection>& injections,
                           sim::SimTime window, Values& sim, Digest& digest) {
  struct Match {
    bool any = false;
    bool unrecovered = false;
    sim::SimTime last_recovered = 0;
  };
  std::vector<Match> matches(injections.size());
  std::vector<double> detect, diagnose, recover;
  std::uint64_t false_detections = 0, unrecovered_records = 0;
  for (const kernel::FaultRecord& r : log.records()) {
    digest.add(r.component);
    digest.add(static_cast<std::uint64_t>(r.node.value));
    digest.add(static_cast<std::uint64_t>(r.detected_at));
    digest.add(static_cast<std::uint64_t>(r.recovered_at));
    if (!r.recovered) ++unrecovered_records;
    // Latest injection at or before detection that this record can belong to.
    std::size_t found = injections.size();
    for (std::size_t i = injections.size(); i-- > 0;) {
      const Injection& inj = injections[i];
      if (inj.at > r.detected_at) continue;
      if (r.detected_at - inj.at > window) break;
      const bool same_node = inj.node.valid() && inj.node == r.node;
      const bool same_service = !inj.component.empty() &&
                                inj.component == r.component &&
                                inj.partition == r.partition;
      if (same_node || same_service) {
        found = i;
        break;
      }
    }
    if (found == injections.size()) {
      ++false_detections;
      continue;
    }
    Match& m = matches[found];
    m.any = true;
    if (!r.recovered) {
      m.unrecovered = true;
    } else {
      m.last_recovered = std::max(m.last_recovered, r.recovered_at);
    }
    const sim::SimTime at = injections[found].at;
    detect.push_back(sim::to_seconds(r.detected_at - at));
    diagnose.push_back(sim::to_seconds(r.diagnosed_at - r.detected_at));
    if (r.recovered) recover.push_back(sim::to_seconds(r.recovered_at - r.diagnosed_at));
  }
  RecoveryStats out;
  for (std::size_t i = 0; i < injections.size(); ++i) {
    const Match& m = matches[i];
    if (!m.any || m.unrecovered) {
      ++out.failures;
    } else {
      out.samples.push_back(sim::to_seconds(m.last_recovered - injections[i].at));
    }
  }
  sim["group.fault_records"] = static_cast<double>(log.records().size());
  sim["group.false_detections"] = static_cast<double>(false_detections);
  sim["group.unrecovered"] = static_cast<double>(out.failures);
  sim["group.unrecovered_records"] = static_cast<double>(unrecovered_records);
  sim["group.detect_p50_sim_s"] = detect.empty() ? 0.0 : median(detect);
  sim["group.diagnose_p50_sim_s"] = diagnose.empty() ? 0.0 : median(diagnose);
  sim["group.recover_p50_sim_s"] = recover.empty() ? 0.0 : median(recover);
  sim["recovery.samples"] = static_cast<double>(injections.size());
  return out;
}

void collect_net(cluster::Cluster& cluster, Values& sim) {
  const net::NetworkStats st = cluster.fabric().total_stats();
  sim["net.msgs_sent"] = static_cast<double>(st.messages_sent);
  sim["net.bytes_sent"] = static_cast<double>(st.bytes_sent);
  sim["net.msgs_lost"] = static_cast<double>(st.messages_lost);
  sim["net.msgs_dropped"] = static_cast<double>(st.messages_dropped);
  for (const char* type : {"group.heartbeat", "ckpt.save", "ckpt.replicate",
                           "db.delta", "config.get", "pws.query_reply",
                           "pws.submit_batch"}) {
    sim[std::string("net.bytes.") + type] =
        static_cast<double>(st.bytes_by_type.get(type));
  }
}

namespace {

void add_runtime(const kernel::ServiceRuntime& rt, const std::string& svc,
                 Values& sim) {
  const auto& c = rt.counters();
  const std::string p = "runtime." + svc + ".";
  sim[p + "received"] += static_cast<double>(c.messages_received);
  sim[p + "snapshots_saved"] += static_cast<double>(c.snapshots_saved);
  sim[p + "restores"] += static_cast<double>(c.restores);
  sim[p + "takeovers"] += static_cast<double>(c.takeovers);
  sim[p + "replays"] += static_cast<double>(rt.replay_cache().replays_served());
}

}  // namespace

void collect_kernel(kernel::PhoenixKernel& k, Values& sim) {
  add_runtime(k.config(), "config", sim);
  double entries = 0, published = 0, deltas_dropped = 0;
  for (std::uint32_t p = 0; p < k.partition_count(); ++p) {
    const net::PartitionId pid{p};
    add_runtime(k.checkpoint_service(pid), "checkpoint", sim);
    add_runtime(k.event_service(pid), "event", sim);
    add_runtime(k.bulletin(pid), "bulletin", sim);
    entries += static_cast<double>(k.checkpoint_service(pid).entry_count());
    published += static_cast<double>(k.event_service(pid).published_count());
    deltas_dropped += static_cast<double>(k.bulletin(pid).deltas_dropped());
  }
  double full = 0, delta = 0;
  for (std::uint32_t n = 0; n < k.cluster().node_count(); ++n) {
    full += static_cast<double>(k.detector(net::NodeId{n}).full_reports_sent());
    delta += static_cast<double>(k.detector(net::NodeId{n}).delta_reports_sent());
  }
  sim["checkpoint.entries"] = entries;
  sim["event.published"] = published;
  sim["bulletin.deltas_dropped"] = deltas_dropped;
  sim["detector.full_reports"] = full;
  sim["detector.delta_reports"] = delta;
  std::uint64_t view = 0;
  for (std::uint32_t p = 0; p < k.partition_count(); ++p) {
    view = std::max(view, k.gsd(net::PartitionId{p}).view().view_id);
  }
  sim["group.regroups"] = static_cast<double>(view);
}

void collect_sim(const World& w, std::uint64_t events_before, double wall_s,
                 Values& sim, Values& host) {
  const double events =
      static_cast<double>(w.cluster->engine().executed() - events_before);
  sim["sim.events"] = events;
  sim["sim.pending_max"] = static_cast<double>(w.pending_max);
  host["sim.events_per_host_s"] = wall_s > 0 ? events / wall_s : 0.0;
}

void probe_kernel(kernel::PhoenixKernel& k, SpanRecorder& spans,
                  const std::string& ckpt_service,
                  const std::vector<std::string>& ckpt_keys, Values& host) {
  const std::uint32_t parts = static_cast<std::uint32_t>(k.partition_count());
  std::size_t rows = 0;
  host["bulletin.rows_host_us"] = probe_us(5, [&] {
    auto s = spans.scope("probe.bulletin_rows");
    for (std::uint32_t p = 0; p < parts; ++p) {
      const auto& db = k.bulletin(net::PartitionId{p});
      rows += db.node_rows().size() + db.app_rows().size();
    }
  });
  std::size_t bytes = 0;
  host["event.registry_host_us"] = probe_us(5, [&] {
    auto s = spans.scope("probe.event_registry");
    for (std::uint32_t p = 0; p < parts; ++p) {
      bytes += k.event_service(net::PartitionId{p}).serialize_registry().size();
    }
  });
  std::size_t hits = 0;
  host["checkpoint.load_host_us"] = probe_us(5, [&] {
    auto s = spans.scope("probe.checkpoint_load");
    for (std::uint32_t p = 0; p < parts; ++p) {
      const auto& cs = k.checkpoint_service(net::PartitionId{p});
      for (const std::string& key : ckpt_keys) {
        hits += cs.load_local(ckpt_service, key).has_value() ? 1 : 0;
      }
    }
  });
  // Keep the probed work observable so it cannot be optimized away.
  host["probe.touched"] += static_cast<double>(rows + bytes + hits);
}

void finish_traced(World& w, const std::string& dir, Values& host) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const bool saved =
      w.spans.write_tsv(dir + "/bench_spans.tsv") &&
      write_file(dir + "/program_metrics.json", w.cluster->metrics().snapshot_json()) &&
      write_file(dir + "/program_spans.chrome.json",
                 w.cluster->span_store().to_chrome_json());
  if (!saved) std::fprintf(stderr, "phx_bench: cannot write trace artifacts to %s\n", dir.c_str());
  const auto totals = w.spans.totals();
  host["obs.spans"] = static_cast<double>(w.spans.spans().size());
  auto self_of = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  auto mean_us = [&](std::initializer_list<const char*> names) {
    double total = 0, count = 0;
    for (const char* n : names) {
      auto it = totals.find(n);
      if (it == totals.end()) continue;
      total += it->second.total_s;
      count += static_cast<double>(it->second.count);
    }
    return count == 0 ? 0.0 : total / count * 1e6;
  };
  host["sim.run_host_s"] = self_of("sim.run_for");
  host["api.issue_host_us"] =
      mean_us({"api.config_get", "api.config_set", "api.checkpoint_save",
               "api.checkpoint_load", "api.query"});
  host["gateway.submit_host_us"] = mean_us({"gateway.submit", "gateway.cancel"});
}

}  // namespace perfbench
