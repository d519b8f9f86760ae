#include "sim/engine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace phoenix::sim {

std::string format_duration(SimTime t) {
  char buf[48];
  if (t < kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "us", t);
  } else if (t < kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(t) / kMillisecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", to_seconds(t));
  }
  return buf;
}

Engine::Engine(std::uint64_t seed) : rng_(seed) {}

EventId Engine::schedule_raw_at(SimTime t, void (*fn)(void*), void* ctx) {
  return schedule_impl(t, Callback(fn, ctx));
}

EventId Engine::schedule_raw_after(SimTime delay, void (*fn)(void*), void* ctx) {
  return schedule_impl(now_ + delay, Callback(fn, ctx));
}

bool Engine::cancel(EventId id) {
  // Lazy cancellation: the queue key stays queued and is skipped when
  // popped; only the generation bump and callback teardown happen here.
  const std::uint64_t slot = id.value >> kGenerationBits;
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value & kGenMask);
  if (gen == 0 || slot >= slots_.size() || !slots_[slot].live ||
      slots_[slot].gen != gen) {
    return false;
  }
  slots_[slot].cb = Callback{};  // release captures promptly
  retire(slot);
  --live_;
  return true;
}

bool Engine::step_limited(SimTime limit) {
  for (;;) {
    // Bucket 0 holds keys equal to last_, in insertion order.
    std::vector<Entry>& due = buckets_[0];
    while (head_ < due.size()) {
      const Entry e = due[head_];
      const std::uint64_t slot = e.id >> kGenerationBits;
      if (!slots_[slot].live || slots_[slot].gen != (e.id & kGenMask)) {
        ++head_;  // cancelled ghost
        continue;
      }
      if (e.time > limit) return false;
      ++head_;
      // Move the callback out and retire the slot *before* running it: the
      // callback may legally schedule into (and thus reuse) this very slot.
      Callback cb = std::move(slots_[slot].cb);
      slots_[slot].cb = Callback{};
      retire(slot);
      --live_;
      now_ = e.time;
      ++executed_;
      cb();
      return true;
    }
    due.clear();
    head_ = 0;
    if (occupied_ == 0) {
      // Drained (possibly by popping only ghosts): re-anchor the base at
      // the clock so the next push at now() is not below it.
      last_ = now_;
      return false;
    }
    // Refill bucket 0 from the lowest non-empty bucket: its minimum becomes
    // the new base and every entry lands in a strictly lower bucket, all of
    // which are empty, so insertion order survives the move.
    const unsigned b = static_cast<unsigned>(std::countr_zero(occupied_)) + 1;
    std::vector<Entry>& src = buckets_[b];
    SimTime min = src.front().time;
    for (const Entry& e : src) min = std::min(min, e.time);
    // run_until() parks the clock below the next event and callers then
    // schedule into [limit, min): the base must not pass limit.
    if (min > limit) return false;
    last_ = min;
    for (const Entry& e : src) push(e);
    // Timer bursts grow some buckets far past their usual size. Releasing a
    // large buffer here keeps the queue's memory near its occupancy instead
    // of the sum of every bucket's all-time peak.
    if (src.capacity() > kKeptBucketCapacity) {
      std::vector<Entry>().swap(src);
    } else {
      src.clear();
    }
    occupied_ &= ~(std::uint64_t{1} << (b - 1));
  }
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Engine::run_until(SimTime t) {
  std::size_t n = 0;
  while (step_limited(t)) ++n;
  if (now_ < t) now_ = t;
  return n;
}

PeriodicTask::PeriodicTask(Engine& engine, SimTime period, Tick tick)
    : engine_(engine), period_(period), tick_(std::move(tick)) {}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() { start_after(period_); }

void PeriodicTask::start_after(SimTime initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTask::stop() {
  if (pending_.value != 0) {
    engine_.cancel(pending_);
    pending_ = EventId{};
  }
  running_ = false;
}

void PeriodicTask::tick_thunk(void* self) {
  static_cast<PeriodicTask*>(self)->on_tick();
}

void PeriodicTask::on_tick() {
  pending_ = EventId{};
  if (!running_) return;
  tick_();
  // tick_ may have called stop() (or even start()); only re-arm if still
  // running and nothing else re-armed us.
  if (running_ && pending_.value == 0) arm(period_);
}

void PeriodicTask::arm(SimTime delay) {
  pending_ = engine_.schedule_raw_after(delay, &PeriodicTask::tick_thunk, this);
}

}  // namespace phoenix::sim
