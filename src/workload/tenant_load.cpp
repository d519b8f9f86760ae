#include "workload/tenant_load.h"

#include <algorithm>
#include <cmath>

#include "sim/rng.h"

namespace phoenix::workload {

std::string tenant_name(std::uint32_t tenant) {
  std::string name = "u";
  name += std::to_string(tenant);
  return name;
}

namespace {

double rate_at(const TenantLoadParams& params, sim::SimTime t) {
  double rate = params.base_rate;
  for (const FlashWindow& flash : params.flashes) {
    if (t >= flash.start && t < flash.end) rate *= flash.rate_multiplier;
  }
  return rate;
}

/// Next rate-change boundary strictly after t (horizon if none).
sim::SimTime next_boundary(const TenantLoadParams& params, sim::SimTime t) {
  sim::SimTime boundary = params.horizon;
  for (const FlashWindow& flash : params.flashes) {
    if (flash.start > t) boundary = std::min(boundary, flash.start);
    if (flash.end > t) boundary = std::min(boundary, flash.end);
  }
  return boundary;
}

}  // namespace

std::vector<TenantEvent> generate_tenant_load(const TenantLoadParams& params) {
  sim::Rng rng(params.seed);
  std::vector<TenantEvent> events;
  events.reserve(static_cast<std::size_t>(
      sim::to_seconds(params.horizon) * params.base_rate * 1.5));

  const auto spammer_count = static_cast<std::uint32_t>(
      params.spammer_fraction * static_cast<double>(params.tenant_count));
  const auto normal_count = params.tenant_count - spammer_count;
  // Probability the next submission comes from a spammer: spammers are
  // spammer_boost times as likely per capita.
  const double spam_weight =
      static_cast<double>(spammer_count) * params.spammer_boost;
  const double normal_weight = static_cast<double>(normal_count);
  const double spam_pick =
      spam_weight + normal_weight > 0.0 ? spam_weight / (spam_weight + normal_weight)
                                        : 0.0;

  sim::SimTime clock = 0;
  while (clock < params.horizon) {
    // Piecewise-constant-rate Poisson: draw at the current rate; a draw
    // that crosses a rate boundary is discarded and redrawn from the
    // boundary (thinning-free and deterministic).
    const double rate = rate_at(params, clock);
    if (rate <= 0.0) break;
    const sim::SimTime step =
        sim::from_seconds(rng.exponential(1.0 / rate));
    const sim::SimTime boundary = next_boundary(params, clock);
    if (clock + step >= boundary) {
      clock = boundary;
      continue;
    }
    clock += step;
    if (clock >= params.horizon) break;

    TenantEvent event;
    event.arrival = clock;
    if (spammer_count > 0 && rng.uniform() < spam_pick) {
      event.tenant = static_cast<std::uint32_t>(
          rng.uniform_int(0, spammer_count - 1));
    } else if (normal_count > 0) {
      event.tenant = spammer_count + static_cast<std::uint32_t>(rng.uniform_int(
                                         0, normal_count - 1));
    }
    unsigned nodes = 1;
    while (nodes < params.max_nodes && rng.chance(0.45)) nodes *= 2;
    event.nodes = std::min(nodes, std::max(1u, params.max_nodes));
    event.duration = sim::from_seconds(std::max(
        params.min_duration_s, rng.exponential(params.mean_duration_s)));
    if (params.cancel_fraction > 0.0 && rng.uniform() < params.cancel_fraction) {
      event.cancel_after = params.cancel_delay;
    }
    events.push_back(event);
  }
  return events;
}

}  // namespace phoenix::workload
