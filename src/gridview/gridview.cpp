#include "gridview/gridview.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace phoenix::gridview {

namespace {
constexpr std::size_t kEventBufferLimit = 256;
constexpr std::size_t kHistoryLimit = 720;  // 2 h at a 10 s refresh
constexpr net::PortId kGridViewPort = cluster::ports::kGridView;
}  // namespace

GridView::GridView(cluster::Cluster& cluster, net::NodeId node,
                   kernel::PhoenixKernel& kernel, sim::SimTime refresh_interval)
    : Daemon(cluster, "gridview", node, kGridViewPort),
      kernel_(kernel),
      refresher_(cluster.engine(), refresh_interval, [this] { refresh(); }) {
  on<kernel::DbQueryReplyMsg>([this](const kernel::DbQueryReplyMsg& reply,
                                     const net::Envelope& env) {
    if (reply.query_id != pending_query_) return;
    pending_query_ = 0;
    last_latency_ = now() - query_sent_at_;
    if (this->cluster().metrics().enabled()) {
      if (refresh_latency_hist_ == nullptr) {
        refresh_latency_hist_ =
            this->cluster().metrics().histogram("gridview.refresh_latency_us");
      }
      refresh_latency_hist_->record(last_latency_);
    }
    partitions_included_ = reply.partitions_included;
    summary_ = reply.aggregated
                   ? reply.summary
                   : kernel::summarize(reply.node_rows, reply.app_rows);
    if (env.message.use_count() == 1) {
      // Sole owner of the delivered reply: keep its row vector instead of
      // copying 640 rows per refresh.
      nodes_ = std::move(const_cast<kernel::DbQueryReplyMsg&>(reply).node_rows);
    } else {
      nodes_ = reply.node_rows;
    }
    ++refreshes_;
    history_.push_back(Sample{now(), summary_, last_latency_});
    while (history_.size() > kHistoryLimit) history_.pop_front();
  });

  on<kernel::EsNotifyMsg>([this](const kernel::EsNotifyMsg& notify) {
    events_.push_back(notify.event);
    while (events_.size() > kEventBufferLimit) events_.pop_front();
  });
}

void GridView::on_start() {
  // Register interested event types with the event service (single access
  // point: our partition's instance replicates the registration).
  kernel::Subscription sub;
  sub.consumer = address();
  for (auto type : {kernel::event_types::kNodeFailed,
                    kernel::event_types::kNodeRecovered,
                    kernel::event_types::kNetworkFailed,
                    kernel::event_types::kNetworkRecovered,
                    kernel::event_types::kServiceFailed,
                    kernel::event_types::kServiceRecovered,
                    kernel::event_types::kGsdMigrated}) {
    sub.types.emplace_back(type);
  }
  auto msg = std::make_shared<kernel::EsSubscribeMsg>();
  msg->subscription = std::move(sub);
  const auto partition = cluster().partition_of(node_id());
  send_any(kernel_.service_address(kernel::ServiceKind::kEventService, partition),
           std::move(msg));

  refresher_.start_after(1 * sim::kSecond);
}

void GridView::on_stop() { refresher_.stop(); }

void GridView::refresh() {
  if (!alive()) return;
  // One call against any data bulletin instance returns cluster-wide data.
  auto query = std::make_shared<kernel::DbQueryMsg>();
  pending_query_ = query_seq_++;
  query->query_id = pending_query_;
  query->table = kernel::BulletinTable::kBoth;
  query->cluster_scope = true;
  query->aggregate_only = aggregate_mode_;
  query->reply_to = address();
  query_sent_at_ = now();
  const auto partition = cluster().partition_of(node_id());
  send_any(kernel_.service_address(kernel::ServiceKind::kDataBulletin, partition),
           std::move(query));
}

std::string GridView::render_sparkline(Metric metric, std::size_t width) const {
  if (history_.empty() || width == 0) return "(no data)";
  auto value_of = [metric](const Sample& s) -> double {
    switch (metric) {
      case Metric::kCpu: return s.summary.avg_cpu_pct;
      case Metric::kMem: return s.summary.avg_mem_pct;
      case Metric::kSwap: return s.summary.avg_swap_pct;
      case Metric::kQueryLatency: return sim::to_seconds(s.query_latency) * 1e3;
    }
    return 0;
  };
  // Downsample the history to `width` buckets (mean per bucket).
  const std::size_t buckets = std::min(width, history_.size());
  std::vector<double> values(buckets, 0.0);
  std::vector<std::size_t> counts(buckets, 0);
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const std::size_t b = i * buckets / history_.size();
    values[b] += value_of(history_[i]);
    ++counts[b];
  }
  double lo = 1e300, hi = -1e300;
  for (std::size_t b = 0; b < buckets; ++b) {
    values[b] /= static_cast<double>(std::max<std::size_t>(1, counts[b]));
    lo = std::min(lo, values[b]);
    hi = std::max(hi, values[b]);
  }
  static constexpr char kLevels[] = " .:-=+*#%@";
  std::string line;
  for (double v : values) {
    const double norm = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    line += kLevels[static_cast<std::size_t>(norm * 9.0)];
  }
  char range[64];
  std::snprintf(range, sizeof(range), " [%.2f..%.2f]", lo, hi);
  return line + range;
}

double GridView::mean_query_latency_s() const {
  if (history_.empty()) return 0.0;
  double sum = 0;
  for (const auto& s : history_) sum += sim::to_seconds(s.query_latency);
  return sum / static_cast<double>(history_.size());
}

std::string GridView::render_dashboard() const {
  std::ostringstream out;
  char line[160];

  out << "+------------------- Fire Phoenix GridView -------------------+\n";
  std::snprintf(line, sizeof(line),
                "| nodes: %5zu   reporting: %5zu   apps: %5zu              \n",
                summary_.node_count, summary_.alive_count, summary_.app_count);
  out << line;

  auto bar = [&](const char* label, double pct) {
    const int width = 40;
    const int filled = static_cast<int>(pct / 100.0 * width + 0.5);
    std::string b(static_cast<std::size_t>(filled), '#');
    b.resize(width, '.');
    std::snprintf(line, sizeof(line), "| %-6s [%s] %6.2f%%\n", label, b.c_str(), pct);
    out << line;
  };
  bar("CPU", summary_.avg_cpu_pct);
  bar("MEM", summary_.avg_mem_pct);
  bar("SWAP", summary_.avg_swap_pct);

  std::snprintf(line, sizeof(line),
                "| last refresh latency: %s   refreshes: %llu\n",
                sim::format_duration(last_latency_).c_str(),
                static_cast<unsigned long long>(refreshes_));
  out << line;
  if (!events_.empty()) {
    out << "| recent events:\n";
    const std::size_t shown = std::min<std::size_t>(5, events_.size());
    for (std::size_t i = events_.size() - shown; i < events_.size(); ++i) {
      std::snprintf(line, sizeof(line), "|   [%s] %s node=%u\n",
                    sim::format_duration(events_[i].timestamp).c_str(),
                    events_[i].type.c_str(), events_[i].subject_node.value);
      out << line;
    }
  }
  out << "+--------------------------------------------------------------+\n";
  return out.str();
}

}  // namespace phoenix::gridview
