#include "pws/gateway.h"

#include <algorithm>
#include <utility>

#include "net/symbol.h"

namespace phoenix::pws {

SubmissionGateway::SubmissionGateway(cluster::Cluster& cluster, net::NodeId node,
                                     GatewayConfig config)
    : Daemon(cluster, "pws.gateway", node, cluster::ports::kPwsGateway),
      config_(std::move(config)),
      ticker_(cluster.engine(), config_.flush_interval, [this] { flush(); }) {
  metrics_ = &cluster.metrics();
  submit_latency_us_ = metrics_->histogram("pws.gateway.submit_latency_us");
  batch_size_hist_ = metrics_->histogram("pws.gateway.batch_size");
  batches_ctr_ = metrics_->counter("pws.gateway.batches");
  absorbed_ctr_ = metrics_->counter("pws.gateway.absorbed_cancels");
  retries_ctr_ = metrics_->counter("pws.gateway.retries");
  probe_id_ = metrics_->register_probe([this](obs::Registry& r) {
    if (!alive()) return;
    r.gauge("pws.gateway.backlog")->set(static_cast<double>(backlog_));
    r.gauge("pws.gateway.inflight")->set(static_cast<double>(inflight()));
  });

  on<PwsSubmitBatchReplyMsg>([this](const PwsSubmitBatchReplyMsg& reply) {
    auto it = inflight_.find(reply.request_id);
    if (it == inflight_.end()) return;  // duplicate reply of a served retry
    InflightBatch done = std::move(it->second);
    inflight_.erase(it);
    ++stats_.replies;
    for (std::size_t i = 0; i < done.items.size(); ++i) {
      const BatchSubmitResult result =
          i < reply.results.size()
              ? reply.results[i]
              : BatchSubmitResult{0, SubmitStatus::kUnavailable};
      finish_item(done.items[i], result);
    }
  });

  on<PwsCancelBatchReplyMsg>([this](const PwsCancelBatchReplyMsg& reply) {
    inflight_cancels_.erase(reply.request_id);
  });
  start();
}

SubmissionGateway::~SubmissionGateway() {
  if (metrics_ != nullptr && probe_id_ != 0) metrics_->unregister_probe(probe_id_);
}

void SubmissionGateway::on_start() {
  ticker_.set_period(config_.flush_interval);
  ticker_.start_after(config_.flush_interval);
}

void SubmissionGateway::on_stop() { ticker_.stop(); }

SubmissionGateway::TenantQueue& SubmissionGateway::tenant(const std::string& user) {
  const auto sym = net::intern_symbol(user);
  auto [it, inserted] = tenants_.try_emplace(sym.value);
  if (inserted) {
    auto weight_it = config_.tenant_weights.find(user);
    const double weight = weight_it == config_.tenant_weights.end()
                              ? config_.default_weight
                              : weight_it->second;
    // A zero/negative weight would starve DRR forever; clamp instead.
    it->second.weight = std::max(1e-3, weight);
  }
  if (!it->second.active) {
    it->second.active = true;
    active_.push_back(sym.value);
  }
  return it->second;
}

SubmissionGateway::Ticket SubmissionGateway::submit(const SubmitRequest& request,
                                                    SubmitCallback callback) {
  const Ticket ticket = next_ticket_++;
  TenantQueue& queue = tenant(request.user);
  queue.items.push_back(
      PendingItem{ticket, request, std::move(callback), now()});
  ticket_tenant_[ticket] = net::intern_symbol(request.user).value;
  ++backlog_;
  ++stats_.submitted;
  return ticket;
}

bool SubmissionGateway::cancel(Ticket ticket) {
  auto where = ticket_tenant_.find(ticket);
  if (where == ticket_tenant_.end()) return false;  // already shipped (or done)
  auto tenant_it = tenants_.find(where->second);
  if (tenant_it == tenants_.end()) return false;
  auto& items = tenant_it->second.items;
  auto item_it = std::find_if(items.begin(), items.end(), [&](const PendingItem& p) {
    return p.ticket == ticket;
  });
  if (item_it == items.end()) return false;
  PendingItem item = std::move(*item_it);
  items.erase(item_it);
  --backlog_;
  ++stats_.absorbed_cancels;
  if (metrics_->enabled()) absorbed_ctr_->inc();
  finish_item(item, BatchSubmitResult{0, SubmitStatus::kCancelled});
  return true;
}

void SubmissionGateway::cancel_job(JobId id) { pending_cancels_.push_back(id); }

void SubmissionGateway::finish_item(const PendingItem& item,
                                    const BatchSubmitResult& result) {
  ticket_tenant_.erase(item.ticket);
  switch (result.status) {
    case SubmitStatus::kAccepted: ++stats_.accepted; break;
    case SubmitStatus::kAdmissionDenied: ++stats_.denied; break;
    case SubmitStatus::kUnavailable: ++stats_.failed; break;
    default: break;
  }
  if (metrics_->enabled()) {
    submit_latency_us_->record(static_cast<std::uint64_t>(now() - item.created_at));
  }
  if (item.callback) item.callback(item.ticket, result);
}

std::vector<SubmissionGateway::PendingItem> SubmissionGateway::assemble_batch() {
  // Weighted deficit round-robin over the backlogged tenants, in activation
  // order: each round a tenant earns `weight` credits and ships one queued
  // job per credit, so a spammer with weight 1 gets exactly one slot per
  // round no matter how deep its queue is.
  std::vector<PendingItem> batch;
  while (batch.size() < config_.max_batch && backlog_ > 0) {
    bool accrued = false;
    for (std::size_t i = 0; i < active_.size() && batch.size() < config_.max_batch;
         ++i) {
      auto tenant_it = tenants_.find(active_[i]);
      if (tenant_it == tenants_.end() || tenant_it->second.items.empty()) continue;
      TenantQueue& queue = tenant_it->second;
      queue.deficit += queue.weight;  // weights < 1 fire every few rounds
      accrued = true;
      while (queue.deficit >= 1.0 && !queue.items.empty() &&
             batch.size() < config_.max_batch) {
        queue.deficit -= 1.0;
        batch.push_back(std::move(queue.items.front()));
        queue.items.pop_front();
        --backlog_;
      }
      if (queue.items.empty()) queue.deficit = 0.0;  // credits don't bank idle
    }
    if (!accrued) break;  // defensive: backlog_ out of step with the queues
  }
  // Compact the activation list once everything drained (keeps DRR order
  // stable while a burst is in progress, bounds the list between bursts).
  if (backlog_ == 0) {
    for (const std::uint32_t sym : active_) {
      auto it = tenants_.find(sym);
      if (it != tenants_.end()) it->second.active = false;
    }
    active_.clear();
  }
  return batch;
}

void SubmissionGateway::send_batch(std::vector<PendingItem> items) {
  auto batch = std::make_shared<PwsSubmitBatchMsg>();
  batch->reply_to = address();
  batch->request_id = next_request_id_++;
  batch->requests.reserve(items.size());
  for (const PendingItem& item : items) {
    ticket_tenant_.erase(item.ticket);  // shipped: no longer locally cancellable
    batch->requests.push_back(item.request);
  }
  ++stats_.batches_sent;
  if (metrics_->enabled()) {
    batches_ctr_->inc();
    batch_size_hist_->record(items.size());
  }
  inflight_.emplace(batch->request_id,
                    InflightBatch{batch, std::move(items), 1});
  send_any(config_.scheduler, batch);
  arm_retry(batch->request_id, /*is_cancel=*/false);
}

void SubmissionGateway::send_cancel_batch() {
  auto batch = std::make_shared<PwsCancelBatchMsg>();
  batch->reply_to = address();
  batch->request_id = next_request_id_++;
  batch->job_ids = std::move(pending_cancels_);
  pending_cancels_.clear();
  stats_.cancels_sent += batch->job_ids.size();
  inflight_cancels_.emplace(batch->request_id, InflightCancel{batch, 1});
  send_any(config_.scheduler, batch);
  arm_retry(batch->request_id, /*is_cancel=*/true);
}

void SubmissionGateway::flush() {
  if (!alive()) return;
  while (backlog_ > 0) {
    std::vector<PendingItem> items = assemble_batch();
    if (items.empty()) break;
    send_batch(std::move(items));
  }
  if (!pending_cancels_.empty()) send_cancel_batch();
}

void SubmissionGateway::arm_retry(std::uint64_t request_id, bool is_cancel) {
  engine().schedule_after(config_.retry_timeout, [this, request_id, is_cancel] {
    if (!alive()) return;
    if (is_cancel) {
      auto it = inflight_cancels_.find(request_id);
      if (it == inflight_cancels_.end()) return;  // reply arrived
      if (it->second.attempts > config_.max_retries) {
        inflight_cancels_.erase(it);  // give up silently; cancel is advisory
        return;
      }
      ++it->second.attempts;
      ++stats_.retries;
      if (metrics_->enabled()) retries_ctr_->inc();
      send_any(config_.scheduler, it->second.message);
      arm_retry(request_id, true);
      return;
    }
    auto it = inflight_.find(request_id);
    if (it == inflight_.end()) return;  // reply arrived
    if (it->second.attempts > config_.max_retries) {
      // Budget spent with no verdict: surface kUnavailable. The scheduler
      // may have executed the batch (reply lost) — the caller can query.
      InflightBatch failed = std::move(it->second);
      inflight_.erase(it);
      for (const PendingItem& item : failed.items) {
        finish_item(item, BatchSubmitResult{0, SubmitStatus::kUnavailable});
      }
      return;
    }
    ++it->second.attempts;
    ++stats_.retries;
    if (metrics_->enabled()) retries_ctr_->inc();
    send_any(config_.scheduler, it->second.message);
    arm_retry(request_id, false);
  });
}

}  // namespace phoenix::pws
