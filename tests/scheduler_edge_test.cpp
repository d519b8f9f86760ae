// Edge cases of the lazy-cancel slot/generation scheduler, plus
// equivalence tests against a reference implementation of the old
// scheduler (a binary heap keyed by (time, seq), eager hash-set liveness
// tracking, std::function callbacks): a fixed 10k-event trace replay and a
// randomized differential run over the radix queue's edge cases.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/inplace_function.h"

namespace phoenix::sim {
namespace {

// ---------------------------------------------------------------------------
// Generation-counter wrap (the ABA bound of lazy cancellation).
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, StaleIdAfterFireDoesNotCancelSlotReuser) {
  Engine eng;
  bool first_fired = false;
  const EventId stale = eng.schedule_at(10, [&] { first_fired = true; });
  eng.run();
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(eng.cancel(stale));  // already fired

  // The slot is reused (LIFO free list) with a bumped generation; the stale
  // id from the fired event must not cancel the new occupant.
  bool second_fired = false;
  const EventId reuse = eng.schedule_at(20, [&] { second_fired = true; });
  EXPECT_EQ(reuse.value >> Engine::kGenerationBits,
            stale.value >> Engine::kGenerationBits);  // same slot...
  EXPECT_NE(reuse.value, stale.value);                // ...new generation
  EXPECT_FALSE(eng.cancel(stale));
  eng.run();
  EXPECT_TRUE(second_fired);
}

TEST(SchedulerEdgeTest, CancelThenReuseAcrossGenerationWrap) {
  // One slot reused until its generation counter wraps: generations run
  // 1, 2, ..., 2^k-1, then back to 1 (0 is skipped — it marks invalid ids).
  // After the full cycle an ancient EventId aliases the current occupant;
  // this is the documented ABA bound of the scheme, and the engine must
  // stay consistent (no double-free of the slot, exact pending count).
  constexpr std::uint64_t kCycle = (1ull << Engine::kGenerationBits) - 1;

  Engine eng;
  const EventId ancient = eng.schedule_at(1000, [] {});
  EXPECT_TRUE(eng.cancel(ancient));

  // Burn through the remaining generations of this one slot.
  for (std::uint64_t i = 0; i < kCycle - 1; ++i) {
    const EventId id = eng.schedule_at(1000, [] {});
    ASSERT_EQ(id.value >> Engine::kGenerationBits,
              ancient.value >> Engine::kGenerationBits)
        << "free list must reuse the same slot";
    ASSERT_TRUE(eng.cancel(id));
    ASSERT_FALSE(eng.cancel(ancient)) << "stale id must stay dead pre-wrap";
  }

  // Next occupant carries the wrapped generation: the ancient id aliases it.
  const EventId reborn = eng.schedule_at(1000, [] {});
  EXPECT_EQ(reborn.value, ancient.value);
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_TRUE(eng.cancel(ancient));  // documented ABA: cancels the reuser
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_FALSE(eng.cancel(reborn));

  // The queue still holds ~2^k lazily-cancelled ghosts; they must all drain
  // without executing anything.
  EXPECT_EQ(eng.run(), 0u);
  EXPECT_EQ(eng.executed(), 0u);
}

// ---------------------------------------------------------------------------
// PeriodicTask re-entrancy.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, PeriodicStopThenStartInsideOwnTick) {
  Engine eng;
  std::vector<SimTime> fires;
  PeriodicTask task(eng, 100, [&] {
    fires.push_back(eng.now());
    if (fires.size() == 2) {
      task.stop();
      task.start_after(37);  // re-phase from inside the tick
    }
  });
  task.start();
  eng.run_until(600);
  // 100, 200 (re-phased), 237, 337, 437, 537.
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 237, 337, 437, 537}));
  EXPECT_TRUE(task.running());
}

TEST(SchedulerEdgeTest, PeriodicStopInsideTickStaysStopped) {
  Engine eng;
  int count = 0;
  PeriodicTask task(eng, 50, [&] {
    if (++count == 3) task.stop();
  });
  task.start();
  eng.run_until(5'000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
  EXPECT_EQ(eng.pending(), 0u);  // no orphaned re-arm left behind
}

TEST(SchedulerEdgeTest, PeriodicRestartInsideTickUsesFullPeriod) {
  Engine eng;
  std::vector<SimTime> fires;
  PeriodicTask task(eng, 100, [&] {
    fires.push_back(eng.now());
    if (fires.size() == 1) task.start();  // restart resets the phase
  });
  task.start();
  eng.run_until(450);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300, 400}));
}

// ---------------------------------------------------------------------------
// run_until with same-time ties.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, RunUntilExecutesAllSameTimeEventsFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(eng.run_until(500), 8u);  // boundary is inclusive
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(eng.now(), 500u);
}

TEST(SchedulerEdgeTest, RunUntilIncludesSameTimeEventsScheduledMidRun) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(500, [&] {
    order.push_back(1);
    // Same-time child scheduled from inside a tied event: still <= t, must
    // run within this run_until, after already-queued ties (FIFO).
    eng.schedule_at(500, [&] { order.push_back(3); });
  });
  eng.schedule_at(500, [&] { order.push_back(2); });
  eng.schedule_at(501, [&] { order.push_back(4); });
  EXPECT_EQ(eng.run_until(500), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 500u);
  EXPECT_EQ(eng.pending(), 1u);  // the 501 event stays queued
}

TEST(SchedulerEdgeTest, RunUntilSkipsCancelledGhostsWithoutOverrunning) {
  Engine eng;
  bool far_fired = false;
  const EventId ghost = eng.schedule_at(100, [] { FAIL() << "cancelled"; });
  eng.schedule_at(5'000, [&] { far_fired = true; });
  eng.cancel(ghost);
  // A cancelled entry at t=100 sits at the head of the queue; running until
  // t=200 must not leak past it into the t=5000 event.
  EXPECT_EQ(eng.run_until(200), 0u);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(eng.now(), 200u);
  EXPECT_EQ(eng.run_until(10'000), 1u);
  EXPECT_TRUE(far_fired);
}

// ---------------------------------------------------------------------------
// Callback storage.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, HotPathLambdasAreStoredInline) {
  struct FabricSized {
    void* self;
    std::uint64_t a, b, c;
    std::shared_ptr<int> p;
    void operator()() const {}
  };
  static_assert(Engine::Callback::stores_inline<FabricSized>(),
                "delivery-lambda-sized captures must not heap-allocate");
  // Oversized closures still work via the heap fallback.
  struct Huge {
    std::uint64_t blob[32];
    void operator()() const {}
  };
  static_assert(!Engine::Callback::stores_inline<Huge>());
  Engine eng;
  Huge huge{};
  huge.blob[0] = 7;
  std::uint64_t seen = 0;
  eng.schedule_at(1, [huge, &seen] { seen = huge.blob[0]; });
  eng.run();
  EXPECT_EQ(seen, 7u);
}

TEST(SchedulerEdgeTest, MoveOnlyCapturesAreSupported) {
  Engine eng;
  auto owned = std::make_unique<int>(99);
  int seen = 0;
  eng.schedule_at(1, [owned = std::move(owned), &seen] { seen = *owned; });
  eng.run();
  EXPECT_EQ(seen, 99);
}

// ---------------------------------------------------------------------------
// Equivalence with the old scheduler.
// ---------------------------------------------------------------------------

// Reference implementation: the pre-overhaul engine verbatim — a priority
// queue of (time, seq, std::function) entries with an unordered_set of live
// sequence numbers, eagerly erased on cancel/fire.
class ReferenceEngine {
 public:
  using Callback = std::function<void()>;
  struct Id {
    std::uint64_t value = 0;
  };

  SimTime now() const noexcept { return now_; }

  Id schedule_at(SimTime t, Callback cb) {
    if (t < now_) t = now_;
    const std::uint64_t seq = next_seq_++;
    queue_.push(Entry{t, seq, std::move(cb)});
    live_.insert(seq);
    return Id{seq};
  }
  Id schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }
  bool cancel(Id id) { return live_.erase(id.value) > 0; }

  bool step() { return step_limited(kNever); }
  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }
  std::size_t run_until(SimTime t) {
    std::size_t n = 0;
    while (step_limited(t)) ++n;
    if (now_ < t) now_ = t;
    return n;
  }
  std::size_t pending() const noexcept { return live_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  bool step_limited(SimTime limit) {
    while (!queue_.empty()) {
      if (!live_.contains(queue_.top().seq)) {
        queue_.pop();
        continue;
      }
      if (queue_.top().time > limit) return false;
      Entry e = std::move(const_cast<Entry&>(queue_.top()));
      queue_.pop();
      live_.erase(e.seq);
      now_ = e.time;
      ++executed_;
      e.cb();
      return true;
    }
    return false;
  }
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
};

// Deterministic workload table shared by both schedulers. Every fired event
// may schedule children and cancel an earlier event, all decided by pure
// functions of the event's label so the two runs see the exact same
// decisions.
struct TraceWorkload {
  static constexpr std::size_t kRoots = 400;
  static constexpr std::size_t kMaxEvents = 10'000;

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
  }
  static SimTime root_time(std::size_t label) { return 1 + mix(label) % 977; }
  static SimTime child_delay(std::size_t label, int child) {
    return mix(label * 31 + static_cast<std::uint64_t>(child)) % 199;  // 0 = same-time tie
  }
  static int children_of(std::size_t label) {
    return static_cast<int>(mix(label ^ 0xabcdu) % 3);  // 0..2 children
  }
  static bool cancels(std::size_t label) { return mix(label ^ 0x77u) % 4 == 0; }
  static std::size_t cancel_victim(std::size_t label, std::size_t scheduled) {
    return mix(label * 7919) % scheduled;
  }
};

// Drives one scheduler through the workload, recording the label of every
// fired event in execution order.
template <typename EngineT, typename IdT>
std::vector<std::size_t> record_trace() {
  EngineT eng;
  std::vector<IdT> ids;  // label -> id
  std::vector<std::size_t> fired_order;

  std::function<void(std::size_t)> fire = [&](std::size_t label) {
    fired_order.push_back(label);
    const int kids = TraceWorkload::children_of(label);
    for (int c = 0; c < kids; ++c) {
      if (ids.size() >= TraceWorkload::kMaxEvents) break;
      const std::size_t child_label = ids.size();
      ids.push_back(eng.schedule_after(
          TraceWorkload::child_delay(label, c),
          [&fire, child_label] { fire(child_label); }));
    }
    if (TraceWorkload::cancels(label)) {
      eng.cancel(ids[TraceWorkload::cancel_victim(label, ids.size())]);
    }
  };

  for (std::size_t r = 0; r < TraceWorkload::kRoots; ++r) {
    const std::size_t label = ids.size();
    ids.push_back(eng.schedule_at(TraceWorkload::root_time(label),
                                  [&fire, label] { fire(label); }));
  }
  eng.run();
  return fired_order;
}

TEST(SchedulerEquivalenceTest, ReplaysTraceInIdenticalOrder) {
  const auto reference = record_trace<ReferenceEngine, ReferenceEngine::Id>();
  const auto actual = record_trace<Engine, EventId>();

  // The workload must be substantial enough to be meaningful: thousands of
  // events with same-time ties and cross-cancellations.
  ASSERT_GT(reference.size(), 2'000u);
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(actual[i], reference[i]) << "divergence at position " << i;
  }
}

TEST(SchedulerEquivalenceTest, SameSeedSameExecutionOrder) {
  // Determinism of the new scheduler itself: two identical runs.
  const auto a = record_trace<Engine, EventId>();
  const auto b = record_trace<Engine, EventId>();
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Randomized differential run against the reference heap.
// ---------------------------------------------------------------------------

// Drives one scheduler through `ops` random top-level operations and logs
// everything observable: each fired label with its time, every cancel
// result, every run/run_until count and the clock after it. Callbacks draw
// from the same generator, so two schedulers produce identical logs exactly
// when they fire the same events in the same order.
template <typename EngineT, typename IdT>
std::vector<std::uint64_t> random_ops_log(std::uint64_t seed, std::size_t ops) {
  EngineT eng;
  std::uint64_t state = seed;
  auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::vector<IdT> ids;
  std::size_t drained = 0;  // ids before this index are all stale
  std::vector<std::uint64_t> log;

  // Keys that stress the radix buckets: ties at now, past times (clamped
  // to now), near-future times, and times differing from now only in bit
  // 40, 62 or 63 (bucket 64). High-bit jumps stop once the clock is past
  // 2^62, so no key can overflow.
  auto pick_time = [&] {
    const SimTime now = eng.now();
    const bool high_ok = now < (SimTime{1} << 62);
    switch (next() % 8) {
      case 0: return now;
      case 1: return now > 3 ? now - 1 - next() % 3 : SimTime{0};
      case 2:
        if (high_ok) return now | (SimTime{1} << 40);
        break;
      case 3:
        if (high_ok && next() % 8 == 0) return now | (SimTime{1} << 62);
        break;
      case 4:
        if (high_ok && next() % 32 == 0) return now | (SimTime{1} << 63);
        break;
      default: break;
    }
    return now + next() % 64;
  };

  std::function<void(std::size_t)> fire;
  auto schedule = [&](SimTime t) {
    const std::size_t label = ids.size();
    ids.push_back(eng.schedule_at(t, [&fire, label] { fire(label); }));
  };
  fire = [&](std::size_t label) {
    log.push_back(label);
    log.push_back(eng.now());
    const std::uint64_t r = next();
    for (std::uint64_t c = 0; c < r % 3 && ids.size() < 4 * ops; ++c) {
      schedule(c == 0 && (r & 8) ? eng.now() : pick_time());  // same-time tie
    }
    if ((r >> 8) % 4 == 0) log.push_back(eng.cancel(ids[(r >> 16) % ids.size()]));
  };

  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t r = next() % 100;
    if (r < 45) {
      schedule(pick_time());
    } else if (r < 65) {
      if (!ids.empty()) log.push_back(eng.cancel(ids[next() % ids.size()]));
    } else if (r < 80) {
      // Stop short of (or before) the next event, then schedule into the
      // gap [now, next).
      const SimTime now = eng.now();
      const SimTime t = next() % 16 == 0 && now > 8 ? now - 8 : now + next() % 48;
      log.push_back(eng.run_until(t));
      log.push_back(eng.now());
      schedule(eng.now() + next() % 4);
    } else if (r < 95) {
      log.push_back(eng.step());
      log.push_back(eng.now());
    } else if (r < 99) {
      log.push_back(eng.pending());
    } else {
      // Cancel everything, drain ghosts only, then schedule just past now.
      // Ids older than the previous drain have all fired or been cancelled.
      for (std::size_t i = drained; i < ids.size(); ++i) {
        log.push_back(eng.cancel(ids[i]));
      }
      log.push_back(eng.run());
      log.push_back(eng.now());
      drained = ids.size();
      schedule(eng.now() + 1);
      for (int k = 0; k < 4; ++k) schedule(pick_time());
    }
  }
  log.push_back(eng.run());
  log.push_back(eng.now());
  log.push_back(eng.executed());
  log.push_back(eng.pending());
  return log;
}

TEST(SchedulerEquivalenceTest, RandomOpsMatchReferenceHeap) {
  constexpr std::size_t kOps = 40'000;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xdeadbeefull}) {
    const auto reference =
        random_ops_log<ReferenceEngine, ReferenceEngine::Id>(seed, kOps);
    const auto actual = random_ops_log<Engine, EventId>(seed, kOps);
    ASSERT_GT(reference.size(), kOps) << "seed " << seed;
    for (std::size_t i = 0; i < std::min(actual.size(), reference.size()); ++i) {
      ASSERT_EQ(actual[i], reference[i]) << "seed " << seed << ", log entry " << i;
    }
    ASSERT_EQ(actual.size(), reference.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace phoenix::sim
