// PWS job-management tests: submission, policies, multi-pool leasing,
// event-driven failure handling, security integration, scheduler HA.
#include "pws/pws.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <random>
#include <sstream>

#include "kernel_fixture.h"
#include "test_client.h"

namespace phoenix::pws {
namespace {

using phoenix::testing::KernelHarness;
using phoenix::testing::TestClient;
using phoenix::testing::fast_ft_params;
using phoenix::testing::small_cluster_spec;

PwsConfig one_pool_config(const cluster::Cluster& cluster,
                          SchedPolicy policy = SchedPolicy::kFifo) {
  PwsConfig config;
  PoolConfig pool;
  pool.name = "batch";
  pool.policy = policy;
  for (std::uint32_t p = 0; p < cluster.spec().partitions; ++p) {
    for (net::NodeId n : cluster.compute_nodes(net::PartitionId{p})) {
      pool.nodes.push_back(n);
    }
  }
  config.pools = {pool};
  return config;
}

SubmitRequest req(const std::string& user, unsigned nodes, double seconds,
                  const std::string& pool = "batch") {
  SubmitRequest r;
  r.user = user;
  r.pool = pool;
  r.nodes = nodes;
  r.duration = sim::from_seconds(seconds);
  return r;
}

class PwsTest : public ::testing::Test {
 protected:
  PwsTest()
      : h(small_cluster_spec(), fast_ft_params()),
        pws(h.kernel, one_pool_config(h.cluster)) {
    h.run_s(1.0);
  }

  KernelHarness h;
  PwsSystem pws;
};

TEST_F(PwsTest, SubmitRunsAndCompletes) {
  const JobId id = pws.submit(req("alice", 2, 5.0));
  h.run_s(3.0);
  const Job* job = pws.scheduler().job(id);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->state, JobState::kRunning);
  EXPECT_EQ(job->allocated.size(), 2u);

  h.run_s(10.0);
  job = pws.scheduler().job(id);
  EXPECT_EQ(job->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().stats().completed, 1u);
}

TEST_F(PwsTest, UnknownPoolRejected) {
  const JobId id = pws.submit(req("alice", 1, 1.0, "no-such-pool"));
  EXPECT_EQ(pws.scheduler().job(id)->state, JobState::kRejected);
  EXPECT_EQ(pws.scheduler().stats().rejected, 1u);
}

TEST_F(PwsTest, FifoOrderPreserved) {
  // 8 compute nodes total; each job takes all of them, so they serialize.
  const JobId a = pws.submit(req("u1", 8, 5.0));
  const JobId b = pws.submit(req("u2", 8, 5.0));
  h.run_s(3.0);
  EXPECT_EQ(pws.scheduler().job(a)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(b)->state, JobState::kQueued);
  h.run_s(7.0);
  EXPECT_EQ(pws.scheduler().job(a)->state, JobState::kCompleted);
  EXPECT_EQ(pws.scheduler().job(b)->state, JobState::kRunning);
}

TEST_F(PwsTest, JobsNeverShareNodes) {
  const JobId a = pws.submit(req("u1", 5, 20.0));
  const JobId b = pws.submit(req("u2", 3, 20.0));
  h.run_s(5.0);
  const Job* ja = pws.scheduler().job(a);
  const Job* jb = pws.scheduler().job(b);
  ASSERT_EQ(ja->state, JobState::kRunning);
  ASSERT_EQ(jb->state, JobState::kRunning);
  for (net::NodeId na : ja->allocated) {
    for (net::NodeId nb : jb->allocated) {
      EXPECT_NE(na, nb);
    }
  }
}

TEST_F(PwsTest, NodeFailureRequeuesJob) {
  const JobId id = pws.submit(req("alice", 2, 120.0));
  h.run_s(3.0);
  const Job* job = pws.scheduler().job(id);
  ASSERT_EQ(job->state, JobState::kRunning);
  const net::NodeId victim = job->allocated[0];

  h.injector.crash_node(victim);
  h.run_s(15.0);  // detection (2 s hb) + diagnosis + event + requeue + restart

  job = pws.scheduler().job(id);
  EXPECT_EQ(job->requeues, 1u);
  EXPECT_EQ(job->state, JobState::kRunning);  // restarted on healthy nodes
  for (net::NodeId n : job->allocated) {
    EXPECT_NE(n, victim);
    EXPECT_TRUE(h.cluster.node(n).alive());
  }
  EXPECT_EQ(pws.scheduler().stats().requeued, 1u);
}

TEST_F(PwsTest, RequeueBudgetExhaustedFailsJob) {
  auto& sched = pws.scheduler();
  const JobId id = sched.submit(req("alice", 1, 600.0));
  for (unsigned attempt = 0; attempt <= 2; ++attempt) {
    h.run_s(5.0);
    const Job* job = sched.job(id);
    ASSERT_EQ(job->state, JobState::kRunning) << "attempt " << attempt;
    h.injector.crash_node(job->allocated[0]);
    h.run_s(15.0);
  }
  EXPECT_EQ(sched.job(id)->state, JobState::kFailed);
  EXPECT_EQ(sched.stats().failed, 1u);
}

TEST_F(PwsTest, CancelQueuedAndRunning) {
  const JobId running = pws.submit(req("u", 8, 100.0));
  const JobId queued = pws.submit(req("u", 8, 100.0));
  h.run_s(3.0);
  EXPECT_TRUE(pws.scheduler().cancel(queued));
  EXPECT_EQ(pws.scheduler().job(queued)->state, JobState::kCancelled);
  EXPECT_TRUE(pws.scheduler().cancel(running));
  EXPECT_EQ(pws.scheduler().job(running)->state, JobState::kCancelled);
  EXPECT_FALSE(pws.scheduler().cancel(running));  // already terminal
  // Nodes freed for later work.
  h.run_s(2.0);
  const JobId next = pws.submit(req("u", 8, 50.0));
  h.run_s(3.0);
  EXPECT_EQ(pws.scheduler().job(next)->state, JobState::kRunning);
}

TEST(PwsPolicyTest, SjfRunsShortJobsFirst) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster, SchedPolicy::kSjf));
  h.run_s(1.0);
  // Occupy the whole pool so ordering is decided while queued.
  pws.submit(req("u", 8, 4.0));
  const JobId slow = pws.submit(req("u", 8, 100.0));
  const JobId fast = pws.submit(req("u", 8, 5.0));
  h.run_s(8.0);  // first job done; SJF must pick `fast` over `slow`
  EXPECT_EQ(pws.scheduler().job(fast)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(slow)->state, JobState::kQueued);
}

TEST(PwsPolicyTest, FairShareFavorsLightUsers) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster, SchedPolicy::kFairShare));
  h.run_s(1.0);
  // heavy-user burns node-seconds first.
  pws.submit(req("heavy", 8, 6.0));
  h.run_s(8.0);
  ASSERT_GT(pws.scheduler().user_usage().at("heavy"), 0.0);
  // Both users queue whole-machine jobs at once; the light user must be
  // ordered ahead of the heavy one despite submitting later.
  const JobId heavy2 = pws.submit(req("heavy", 8, 5.0));
  const JobId light = pws.submit(req("light", 8, 5.0));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(light)->state, JobState::kRunning);
  EXPECT_EQ(pws.scheduler().job(heavy2)->state, JobState::kQueued);
  h.run_s(20.0);
  EXPECT_LT(pws.scheduler().job(light)->started_at,
            pws.scheduler().job(heavy2)->started_at);
}

TEST(PwsPolicyTest, BackfillFillsHolesWithoutDelayingHead) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster, SchedPolicy::kBackfill));
  h.run_s(1.0);
  // 8 nodes. Job A takes 6 for 20 s. Head-of-queue B needs 8 (blocked).
  // C needs 2 nodes for 5 s: fits in the hole and ends before A frees B.
  pws.submit(req("u", 6, 20.0));
  const JobId blocked_head = pws.submit(req("u", 8, 10.0));
  const JobId filler = pws.submit(req("u", 2, 5.0));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(filler)->state, JobState::kRunning)
      << "backfill should start the small job in the hole";
  EXPECT_EQ(pws.scheduler().job(blocked_head)->state, JobState::kQueued);

  // A long filler that WOULD delay the head must not start.
  const JobId bad_filler = pws.submit(req("u", 2, 500.0));
  h.run_s(4.0);
  EXPECT_EQ(pws.scheduler().job(bad_filler)->state, JobState::kQueued);
}

TEST(PwsLeasingTest, IdleNodesLeaseAcrossPoolsAndReturn) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  // Two pools of 4 nodes each.
  PwsConfig config;
  PoolConfig pool_a, pool_b;
  pool_a.name = "alpha";
  pool_b.name = "beta";
  pool_a.nodes = h.cluster.compute_nodes(net::PartitionId{0});
  pool_b.nodes = h.cluster.compute_nodes(net::PartitionId{1});
  config.pools = {pool_a, pool_b};
  PwsSystem pws(h.kernel, config);
  h.run_s(1.0);

  // A 6-node job in alpha exceeds its 4 owned nodes; beta is idle.
  const JobId big = pws.submit(req("alice", 6, 5.0, "alpha"));
  h.run_s(3.0);
  const Job* job = pws.scheduler().job(big);
  ASSERT_EQ(job->state, JobState::kRunning);
  std::size_t borrowed = 0;
  for (net::NodeId n : job->allocated) {
    if (pws.scheduler().is_leased(n)) ++borrowed;
  }
  EXPECT_EQ(borrowed, 2u);
  EXPECT_GE(pws.scheduler().stats().leases_granted, 2u);

  // After completion the leases return to beta.
  h.run_s(10.0);
  EXPECT_EQ(pws.scheduler().job(big)->state, JobState::kCompleted);
  for (net::NodeId n : pool_b.nodes) {
    EXPECT_FALSE(pws.scheduler().is_leased(n));
    EXPECT_EQ(pws.scheduler().effective_pool(n), "beta");
  }
}

TEST(PwsLeasingTest, BusyOwnerDoesNotLend) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsConfig config;
  PoolConfig pool_a, pool_b;
  pool_a.name = "alpha";
  pool_b.name = "beta";
  pool_a.nodes = h.cluster.compute_nodes(net::PartitionId{0});
  pool_b.nodes = h.cluster.compute_nodes(net::PartitionId{1});
  config.pools = {pool_a, pool_b};
  PwsSystem pws(h.kernel, config);
  h.run_s(1.0);

  // Beta has its own queued demand: it must refuse to lend.
  pws.submit(req("bob", 4, 30.0, "beta"));
  const JobId beta_waiting = pws.submit(req("bob", 4, 30.0, "beta"));
  const JobId alpha_big = pws.submit(req("alice", 6, 30.0, "alpha"));
  h.run_s(5.0);
  EXPECT_EQ(pws.scheduler().job(alpha_big)->state, JobState::kQueued);
  EXPECT_EQ(pws.scheduler().job(beta_waiting)->state, JobState::kQueued);
  EXPECT_EQ(pws.scheduler().stats().leases_granted, 0u);
}

TEST(PwsSecurityTest, UnauthorizedSubmissionRejected) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("alice", "pw", {"scientist"});
  security.grant("scientist", "job.submit", "pool/batch");
  security.add_user("mallory", "pw2", {"guest"});
  h.run_s(1.0);

  TestClient client(h.cluster, net::NodeId{3});
  auto submit = [&](const std::string& user, const std::string& secret,
                    std::uint64_t rid) {
    // Authenticate directly (local API), then submit over messages.
    auto token = security.authenticate(user, secret);
    ASSERT_TRUE(token.has_value());
    auto msg = std::make_shared<PwsSubmitMsg>();
    msg->request = req(user, 1, 5.0);
    msg->token = *token;
    msg->reply_to = client.address();
    msg->request_id = rid;
    client.send_any(pws.scheduler().address(), msg);
  };

  submit("alice", "pw", 1);
  submit("mallory", "pw2", 2);
  h.run_s(3.0);

  const auto replies = client.of_type<PwsSubmitReplyMsg>();
  ASSERT_EQ(replies.size(), 2u);
  bool alice_ok = false, mallory_rejected = false;
  for (const auto* r : replies) {
    if (r->request_id == 1 && r->accepted) alice_ok = true;
    if (r->request_id == 2 && !r->accepted) mallory_rejected = true;
  }
  EXPECT_TRUE(alice_ok);
  EXPECT_TRUE(mallory_rejected);
  EXPECT_EQ(pws.scheduler().stats().rejected, 1u);
}

TEST(PwsHaTest, SchedulerProcessRestartKeepsJobs) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);

  const JobId running = pws.submit(req("alice", 2, 60.0));
  const JobId queued_long = pws.submit(req("alice", 8, 60.0));
  h.run_s(3.0);
  ASSERT_EQ(pws.scheduler().job(running)->state, JobState::kRunning);

  // Kill the scheduler. The GSD supervising it restarts it; checkpointed
  // state brings the job table back.
  h.injector.kill_daemon(pws.scheduler());
  h.run_s(15.0);

  ASSERT_TRUE(pws.scheduler().alive());
  const Job* recovered_running = pws.scheduler().job(running);
  const Job* recovered_queued = pws.scheduler().job(queued_long);
  ASSERT_NE(recovered_running, nullptr);
  ASSERT_NE(recovered_queued, nullptr);
  EXPECT_EQ(recovered_running->state, JobState::kRunning);
  EXPECT_EQ(recovered_queued->state, JobState::kQueued);
}

TEST(PwsHaTest, JobCompletionDuringSchedulerOutageReconciled) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);

  const JobId id = pws.submit(req("alice", 1, 4.0));
  h.run_s(2.0);
  ASSERT_EQ(pws.scheduler().job(id)->state, JobState::kRunning);

  // Scheduler dies; the job finishes while it is down.
  h.injector.kill_daemon(pws.scheduler());
  h.run_s(15.0);  // job exits at ~4 s; restart + bulletin reconciliation

  ASSERT_TRUE(pws.scheduler().alive());
  h.run_s(5.0);
  EXPECT_EQ(pws.scheduler().job(id)->state, JobState::kCompleted);
}

TEST(PwsSerializationTest, JobsRoundTrip) {
  std::map<JobId, Job> jobs;
  Job j;
  j.id = 7;
  j.name = "alpha";
  j.user = "bob";
  j.pool = "batch";
  j.nodes_needed = 3;
  j.duration = 123456;
  j.state = JobState::kRunning;
  j.submitted_at = 10;
  j.started_at = 20;
  j.exited = 1;
  j.requeues = 2;
  j.allocated = {net::NodeId{4}, net::NodeId{5}};
  j.pids = {{4, 100}, {5, 101}};
  jobs[7] = j;

  const auto parsed = deserialize_jobs(serialize_jobs(jobs));
  ASSERT_EQ(parsed.size(), 1u);
  const Job& p = parsed.at(7);
  EXPECT_EQ(p.name, "alpha");
  EXPECT_EQ(p.user, "bob");
  EXPECT_EQ(p.nodes_needed, 3u);
  EXPECT_EQ(p.duration, 123456u);
  EXPECT_EQ(p.state, JobState::kRunning);
  EXPECT_EQ(p.requeues, 2u);
  ASSERT_EQ(p.allocated.size(), 2u);
  EXPECT_EQ(p.allocated[1].value, 5u);
  EXPECT_EQ(p.pids.at(4), 100u);
}

TEST(PwsSerializationTest, MalformedLinesSkipped) {
  const auto parsed = deserialize_jobs("garbage|line\n\nnot|enough|fields\n");
  EXPECT_TRUE(parsed.empty());
}

// --- checkpoint image exactness ---------------------------------------------
//
// The stream-based serializer and parser below are verbatim copies of the
// historical implementations. They are the oracles: the checkpoint bytes are
// on the wire (the fabric charges per byte), so the fast paths must match
// them exactly.

std::string reference_serialize(const std::map<JobId, Job>& jobs) {
  std::ostringstream out;
  for (const auto& [id, job] : jobs) {
    out << id << '|' << job.name << '|' << job.user << '|' << job.pool << '|'
        << job.nodes_needed << '|' << job.duration << '|'
        << static_cast<int>(job.state) << '|' << job.submitted_at << '|'
        << job.started_at << '|' << job.finished_at << '|' << job.exited << '|'
        << job.requeues << '|' << job.priority << '|' << job.walltime_limit
        << '|' << job.arch << '|' << job.after_ok << '|';
    for (std::size_t i = 0; i < job.allocated.size(); ++i) {
      if (i > 0) out << ',';
      out << job.allocated[i].value;
    }
    out << '|';
    bool first = true;
    for (const auto& [node, pid] : job.pids) {
      if (!first) out << ',';
      first = false;
      out << node << '=' << pid;
    }
    out << '\n';
  }
  return out.str();
}

std::map<JobId, Job> reference_deserialize(const std::string& data) {
  std::map<JobId, Job> jobs;
  std::istringstream in(data);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string f;
    Job job;
    auto next = [&]() -> std::string {
      std::getline(fields, f, '|');
      return f;
    };
    try {
      job.id = std::stoull(next());
      job.name = next();
      job.user = next();
      job.pool = next();
      job.nodes_needed = static_cast<unsigned>(std::stoul(next()));
      job.duration = std::stoull(next());
      job.state = static_cast<JobState>(std::stoi(next()));
      job.submitted_at = std::stoull(next());
      job.started_at = std::stoull(next());
      job.finished_at = std::stoull(next());
      job.exited = static_cast<unsigned>(std::stoul(next()));
      job.requeues = static_cast<unsigned>(std::stoul(next()));
      job.priority = std::stoi(next());
      job.walltime_limit = std::stoull(next());
      job.arch = next();
      job.after_ok = std::stoull(next());
      std::istringstream alloc(next());
      std::string a;
      while (std::getline(alloc, a, ',')) {
        if (!a.empty()) {
          job.allocated.push_back(
              net::NodeId{static_cast<std::uint32_t>(std::stoul(a))});
        }
      }
      std::istringstream pids(next());
      std::string p;
      while (std::getline(pids, p, ',')) {
        const auto eq = p.find('=');
        if (eq != std::string::npos) {
          job.pids[static_cast<std::uint32_t>(std::stoul(p.substr(0, eq)))] =
              std::stoull(p.substr(eq + 1));
        }
      }
    } catch (const std::exception&) {
      continue;
    }
    jobs.emplace(job.id, std::move(job));
  }
  return jobs;
}

/// Random jobs that stress every field's formatting: empty strings,
/// extreme integers, negative priorities, multi-node allocations, many pids.
class JobGen {
 public:
  explicit JobGen(std::uint64_t seed, std::string charset)
      : rng_(seed), charset_(std::move(charset)) {}

  Job job(JobId id) {
    Job j;
    j.id = id;
    j.name = text();
    j.user = text();
    j.pool = text();
    j.nodes_needed = static_cast<unsigned>(u64());
    j.duration = u64();
    j.state = static_cast<JobState>(pick(8));
    j.submitted_at = u64();
    j.started_at = u64();
    j.finished_at = u64();
    j.exited = static_cast<unsigned>(u64());
    j.requeues = static_cast<unsigned>(u64());
    j.priority = i32();
    j.walltime_limit = u64();
    j.arch = text();
    j.after_ok = u64();
    for (std::uint64_t n = pick(6); n > 0; --n) {
      j.allocated.push_back(net::NodeId{static_cast<std::uint32_t>(u64())});
    }
    for (std::uint64_t n = pick(6); n > 0; --n) {
      j.pids[static_cast<std::uint32_t>(u64())] = u64();
    }
    return j;
  }

  std::map<JobId, Job> table(std::size_t max_jobs) {
    std::map<JobId, Job> jobs;
    for (std::uint64_t n = pick(max_jobs + 1); n > 0; --n) {
      const JobId id = u64();
      jobs[id] = job(id);
    }
    return jobs;
  }

  std::uint64_t pick(std::uint64_t bound) { return rng_() % bound; }

  std::uint64_t u64() {
    switch (pick(5)) {
      case 0: return 0;
      case 1: return UINT64_MAX;
      case 2: return UINT32_MAX - pick(2);
      case 3: return pick(1000);
      default: return rng_();
    }
  }

  int i32() {
    switch (pick(4)) {
      case 0: return INT_MIN;
      case 1: return INT_MAX;
      case 2: return -static_cast<int>(pick(1000));
      default: return static_cast<int>(rng_());
    }
  }

  std::string text() {
    std::string out;
    for (std::uint64_t n = pick(3) == 0 ? 0 : pick(12); n > 0; --n) {
      out += charset_[pick(charset_.size())];
    }
    return out;
  }

 private:
  std::mt19937_64 rng_;
  std::string charset_;
};

// Field text the parser can round-trip (no '|' or newline).
const char* const kSafeChars = "abcXYZ019 _-=,+.";

TEST(PwsSerializationTest, AppendJobLineMatchesStreamFormatter) {
  // Any bytes at all in the text fields, separators included.
  JobGen gen(1, std::string("abz09 |=,\n-+\t") + '\0');
  for (int round = 0; round < 2000; ++round) {
    const auto jobs = gen.table(4);
    std::string lines;
    for (const auto& [id, job] : jobs) append_job_line(lines, job);
    ASSERT_EQ(lines, reference_serialize(jobs)) << "round " << round;
    ASSERT_EQ(serialize_jobs(jobs), lines);
  }
  Job empty;  // all defaults, empty strings
  std::string line;
  append_job_line(line, empty);
  EXPECT_EQ(line, "0||||1|0|1|0|0|0|0|0|0|0||0||\n");
  EXPECT_EQ(line, reference_serialize({{0, empty}}));
}

TEST(PwsSerializationTest, ParserMatchesStreamParserOnSerializedTables) {
  JobGen gen(2, kSafeChars);
  for (int round = 0; round < 1000; ++round) {
    const auto jobs = gen.table(6);
    const std::string data = serialize_jobs(jobs);
    const auto parsed = deserialize_jobs(data);
    ASSERT_EQ(parsed.size(), jobs.size());
    ASSERT_EQ(reference_serialize(parsed), data) << "round " << round;
    ASSERT_EQ(reference_serialize(reference_deserialize(data)), data);
  }
}

TEST(PwsSerializationTest, ParserMatchesStreamParserOnCorruptedInput) {
  // Random edits around the separators and number syntax: both parsers must
  // keep and drop exactly the same lines, with the same field values.
  JobGen gen(3, kSafeChars);
  const std::string edits = "|,=-+ \t\v0123456789x\n";
  for (int round = 0; round < 4000; ++round) {
    std::string data = serialize_jobs(gen.table(3));
    for (std::uint64_t n = 1 + gen.pick(4); n > 0 && !data.empty(); --n) {
      const std::size_t at = gen.pick(data.size());
      switch (gen.pick(4)) {
        case 0: data.erase(at, 1); break;
        case 1: data.insert(at, 1, edits[gen.pick(edits.size())]); break;
        case 2: data[at] = edits[gen.pick(edits.size())]; break;
        default: data.resize(at); break;
      }
    }
    const auto expected = reference_deserialize(data);
    const auto actual = deserialize_jobs(data);
    ASSERT_EQ(actual.size(), expected.size()) << data;
    ASSERT_EQ(reference_serialize(actual), reference_serialize(expected)) << data;
  }
  for (const char* data : {
           " 7|a|u|p| +1|2|\t3|4|5|6|7|8|-9|10|x|11|1,,2|3=4,5,6=7\n",
           "-1|a|u|p|1|-2|-1|0|0|0|0|0|0|0||0||\n",
           "1|a|u|p|1|2|2147483648|0|0|0|0|0|0|0||0||\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|-2147483648|0||0||\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|-2147483649|0||0||\n",
           "18446744073709551616|a|u|p|1|2|3|0|0|0|0|0|0|0||0||\n",
           "-18446744073709551615|a|u|p|1|2|3|0|0|0|0|0|0|0||0||\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|0|0||0|1,x|\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|0|0||0||=4\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|0|0||0||4=\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|0|0||0\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|0|0||\n",
           "2x|a|u|p|1|2|3|0|0|0|0|0|0|0||5y|9z|1=2=3|extra|fields\n",
           "1|a|u|p|1|2|3|0|0|0|0|0|0|0||0||\n1|b|u|p|1|2|3|0|0|0|0|0|0|0||0||",
       }) {
    EXPECT_EQ(reference_serialize(deserialize_jobs(data)),
              reference_serialize(reference_deserialize(data)))
        << data;
  }
}

TEST(PwsSerializationTest, TableImageEqualsFullSerialization) {
  // Drives JobTableImage the way the scheduler does: live jobs change
  // freely, terminal jobs change only with an invalidate(), and terminal
  // jobs may be retired from the table.
  JobGen gen(4, kSafeChars);
  std::map<JobId, Job> jobs;
  JobTableImage image;
  JobId next_id = 1;
  const auto random_job = [&](std::uint64_t max) {
    auto it = jobs.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(gen.pick(max)));
    return it;
  };
  for (int step = 0; step < 2000; ++step) {
    switch (jobs.empty() ? 0 : gen.pick(4)) {
      case 0: {  // submit
        Job job = gen.job(next_id);
        job.state = JobState::kQueued;
        jobs[next_id++] = std::move(job);
        break;
      }
      case 1: {  // a live job changes, possibly to a terminal state
        auto it = random_job(jobs.size());
        if (it->second.terminal()) break;
        it->second.started_at = gen.u64();
        it->second.state = static_cast<JobState>(gen.pick(8));
        break;
      }
      case 2: {  // a terminal job changes (late spawn reply, late authz)
        auto it = random_job(jobs.size());
        if (!it->second.terminal()) break;
        image.invalidate(it->first);
        it->second.pids[static_cast<std::uint32_t>(gen.pick(64))] = gen.u64();
        if (gen.pick(2) == 0) it->second.state = static_cast<JobState>(gen.pick(8));
        break;
      }
      default: {  // retire a terminal job
        auto it = random_job(jobs.size());
        if (it->second.terminal()) jobs.erase(it);
        break;
      }
    }
    ASSERT_EQ(image.serialize(jobs), serialize_jobs(jobs)) << "step " << step;
    std::size_t terminal = 0;
    for (const auto& [id, job] : jobs) terminal += job.terminal() ? 1 : 0;
    ASSERT_EQ(image.cached_lines(), terminal);
  }
}

// The scheduler's stored checkpoint must equal a fresh serialization of its
// job table once the engine has settled.
void expect_checkpoint_current(KernelHarness& h, const PwsScheduler& sched) {
  const auto partition = h.cluster.partition_of(sched.node_id());
  const auto stored =
      h.kernel.checkpoint_service(partition).load_local("pws", "jobs");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*stored, serialize_jobs(sched.jobs()));
}

/// Steps the engine until job `id` has been started (its spawn requests are
/// on the wire, no reply has arrived yet).
void step_until_running(KernelHarness& h, const PwsScheduler& sched, JobId id) {
  while (sched.job(id)->state != JobState::kRunning) {
    ASSERT_TRUE(h.cluster.engine().step());
  }
  ASSERT_TRUE(sched.job(id)->pids.empty());
}

TEST_F(PwsTest, CheckpointCurrentAfterCancelWhileSpawning) {
  auto& sched = pws.scheduler();
  const JobId done = sched.submit(req("u", 2, 1.0));
  h.run_s(4.0);
  ASSERT_EQ(sched.job(done)->state, JobState::kCompleted);

  const JobId id = sched.submit(req("u", 2, 30.0));
  step_until_running(h, sched, id);
  ASSERT_TRUE(sched.cancel(id));  // saves the cancelled job, no pids yet
  h.run_s(2.5);
  // The late spawn replies recorded pids for the already-cancelled job.
  EXPECT_EQ(sched.job(id)->state, JobState::kCancelled);
  EXPECT_EQ(sched.job(id)->pids.size(), 2u);
  expect_checkpoint_current(h, sched);
}

TEST(PwsCheckpointTest, CheckpointCurrentAfterWalltimeKillWhileSpawning) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.schedule_tick = 100 * sim::kMillisecond;
  PwsSystem pws(h.kernel, config);
  h.run_s(1.0);
  auto& sched = pws.scheduler();

  // Spawn replies arrive 300 ms late: the 50 ms walltime expires first.
  for (const auto& pool : config.pools) {
    for (net::NodeId n : pool.nodes) h.injector.slow_node(n, 300 * sim::kMillisecond);
  }
  auto r = req("u", 1, 30.0);
  r.walltime_limit = 50 * sim::kMillisecond;
  const JobId id = sched.submit(r);
  step_until_running(h, sched, id);
  h.run_s(0.2);
  ASSERT_EQ(sched.job(id)->state, JobState::kTimedOut);
  ASSERT_TRUE(sched.job(id)->pids.empty());
  h.run_s(0.5);
  EXPECT_EQ(sched.job(id)->pids.size(), 1u);
  for (const auto& pool : config.pools) {
    for (net::NodeId n : pool.nodes) h.injector.restore_node_speed(n);
  }
  h.run_s(1.05);
  expect_checkpoint_current(h, sched);
}

TEST_F(PwsTest, CheckpointCurrentAfterNodeFailureRequeue) {
  auto& sched = pws.scheduler();
  sched.submit(req("u", 1, 1.0));
  const JobId id = sched.submit(req("alice", 2, 120.0));
  h.run_s(3.0);
  ASSERT_EQ(sched.job(id)->state, JobState::kRunning);
  h.injector.crash_node(sched.job(id)->allocated[0]);
  h.run_s(15.5);
  ASSERT_EQ(sched.job(id)->requeues, 1u);
  ASSERT_EQ(sched.job(id)->state, JobState::kRunning);
  expect_checkpoint_current(h, sched);
}

TEST(PwsCheckpointTest, CheckpointCurrentAcrossSchedulerRestore) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  PwsSystem pws(h.kernel, one_pool_config(h.cluster));
  h.run_s(1.0);
  const JobId done = pws.submit(req("alice", 2, 1.0));
  const JobId cancelled = pws.submit(req("bob", 8, 60.0));
  const JobId running = pws.submit(req("alice", 2, 60.0));
  h.run_s(4.0);
  ASSERT_EQ(pws.scheduler().job(done)->state, JobState::kCompleted);
  ASSERT_TRUE(pws.scheduler().cancel(cancelled));
  h.run_s(0.5);
  expect_checkpoint_current(h, pws.scheduler());

  // The stored image differs from the dead scheduler's memory (as after a
  // lost save): the restore must not reuse lines cached before it.
  h.injector.kill_daemon(pws.scheduler());
  auto stored = pws.scheduler().jobs();
  const sim::SimTime edited = stored.at(cancelled).finished_at + 1;
  stored.at(cancelled).finished_at = edited;
  h.kernel
      .checkpoint_service(h.cluster.partition_of(pws.scheduler().node_id()))
      .save_local("pws", "jobs", serialize_jobs(stored));
  h.run_s(15.0);
  ASSERT_TRUE(pws.scheduler().alive());
  ASSERT_EQ(pws.scheduler().job(running)->state, JobState::kRunning);
  ASSERT_EQ(pws.scheduler().job(cancelled)->state, JobState::kCancelled);
  ASSERT_EQ(pws.scheduler().job(cancelled)->finished_at, edited);
  expect_checkpoint_current(h, pws.scheduler());

  // Changes after the restore are saved exactly too.
  ASSERT_TRUE(pws.scheduler().cancel(running));
  const JobId later = pws.submit(req("bob", 1, 1.0));
  h.run_s(4.5);
  ASSERT_EQ(pws.scheduler().job(later)->state, JobState::kCompleted);
  expect_checkpoint_current(h, pws.scheduler());
}

TEST(PwsCheckpointTest, CheckpointCurrentAfterCancelWhileAuthorizing) {
  KernelHarness h(small_cluster_spec(), fast_ft_params());
  auto config = one_pool_config(h.cluster);
  config.use_security = true;
  PwsSystem pws(h.kernel, config);
  auto& security = h.kernel.security();
  security.add_user("mallory", "pw", {"guest"});
  h.run_s(1.0);
  auto& sched = pws.scheduler();

  TestClient client(h.cluster, net::NodeId{3});
  auto msg = std::make_shared<PwsSubmitMsg>();
  msg->request = req("mallory", 1, 5.0);
  msg->token = *security.authenticate("mallory", "pw");
  msg->reply_to = client.address();
  msg->request_id = 1;
  client.send_any(sched.address(), msg);
  while (sched.jobs().empty()) ASSERT_TRUE(h.cluster.engine().step());
  const JobId id = sched.jobs().begin()->first;
  ASSERT_EQ(sched.job(id)->state, JobState::kAuthorizing);
  ASSERT_TRUE(sched.cancel(id));  // saves the cancelled job
  h.run_s(1.5);
  // The late denial rewrites the already-cancelled job.
  EXPECT_EQ(sched.job(id)->state, JobState::kRejected);
  expect_checkpoint_current(h, sched);
}

}  // namespace
}  // namespace phoenix::pws
