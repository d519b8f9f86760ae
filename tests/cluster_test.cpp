// Unit tests for the cluster layer: partition layout, node lifecycle,
// process table, daemon registration/crash semantics.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <memory>

#include "cluster/daemon.h"

namespace phoenix::cluster {
namespace {

struct NoteMsg final : net::Message {
  int value = 0;
  std::string_view type() const noexcept override { return "test.note"; }
  std::size_t wire_size() const noexcept override { return 4; }
};

class EchoDaemon final : public Daemon {
 public:
  EchoDaemon(Cluster& cluster, net::NodeId node, net::PortId port)
      : Daemon(cluster, "echo", node, port, 0.01) {}

  std::vector<int> received;

 private:
  void handle(const net::Envelope& env) override {
    if (const auto* note = net::message_cast<NoteMsg>(*env.message)) {
      received.push_back(note->value);
    }
  }
};

struct PingMsg final : net::Message {
  int value = 0;
  PHOENIX_MESSAGE_TYPE("test.dispatch.ping")
  std::size_t wire_size() const noexcept override { return 4; }
};

struct TagMsg final : net::Message {
  int value = 0;
  PHOENIX_MESSAGE_TYPE("test.dispatch.tag")
  std::size_t wire_size() const noexcept override { return 4; }
};

struct StrayMsg final : net::Message {
  PHOENIX_MESSAGE_TYPE("test.dispatch.stray")
  std::size_t wire_size() const noexcept override { return 4; }
};

/// Overrides no handle(): delivery goes through Daemon's own on<> table.
class TableDaemon final : public Daemon {
 public:
  TableDaemon(Cluster& cluster, net::NodeId node, net::PortId port)
      : Daemon(cluster, "table", node, port) {
    on<PingMsg>([this](const PingMsg& ping) { pings.push_back(ping.value); });
    on<TagMsg>([this](const TagMsg& tag, const net::Envelope& env) {
      tags.push_back(tag.value);
      tag_senders.push_back(env.from);
    });
  }

  std::vector<int> pings;
  std::vector<int> tags;
  std::vector<net::Address> tag_senders;
};

ClusterSpec small_spec() {
  ClusterSpec spec;
  spec.partitions = 2;
  spec.computes_per_partition = 3;
  spec.backups_per_partition = 1;
  spec.networks = 3;
  return spec;
}

TEST(ClusterLayoutTest, NodeCountsAndRoles) {
  Cluster cluster(small_spec());
  EXPECT_EQ(cluster.node_count(), 10u);  // 2 * (1 + 1 + 3)
  EXPECT_EQ(cluster.node(net::NodeId{0}).role(), NodeRole::kServer);
  EXPECT_EQ(cluster.node(net::NodeId{1}).role(), NodeRole::kBackup);
  EXPECT_EQ(cluster.node(net::NodeId{2}).role(), NodeRole::kCompute);
  EXPECT_EQ(cluster.node(net::NodeId{5}).role(), NodeRole::kServer);
}

TEST(ClusterLayoutTest, PartitionAccessors) {
  Cluster cluster(small_spec());
  EXPECT_EQ(cluster.server_node(net::PartitionId{1}).value, 5u);
  const auto backups = cluster.backup_nodes(net::PartitionId{1});
  ASSERT_EQ(backups.size(), 1u);
  EXPECT_EQ(backups[0].value, 6u);
  const auto computes = cluster.compute_nodes(net::PartitionId{0});
  ASSERT_EQ(computes.size(), 3u);
  EXPECT_EQ(computes[0].value, 2u);
  EXPECT_EQ(computes[2].value, 4u);
  EXPECT_EQ(cluster.partition_nodes(net::PartitionId{0}).size(), 5u);
  EXPECT_EQ(cluster.partition_of(net::NodeId{7}).value, 1u);
  EXPECT_EQ(cluster.partition_of(net::NodeId{4}).value, 0u);
}

TEST(ClusterLayoutTest, ZeroPartitionsRejected) {
  ClusterSpec spec;
  spec.partitions = 0;
  EXPECT_THROW(Cluster{spec}, std::invalid_argument);
}

TEST(NodeTest, ProcessTableLifecycle) {
  Node node(net::NodeId{0}, net::PartitionId{0}, NodeRole::kCompute, 4);
  node.add_process(ProcessInfo{.pid = 1, .name = "a", .owner = "u",
                               .state = ProcessState::kRunning, .cpu_share = 1.5});
  node.add_process(ProcessInfo{.pid = 2, .name = "b", .owner = "u",
                               .state = ProcessState::kRunning, .cpu_share = 0.5});
  EXPECT_EQ(node.running_process_count(), 2u);
  EXPECT_DOUBLE_EQ(node.daemon_cpu_load(), 2.0);

  EXPECT_TRUE(node.terminate_process(1, ProcessState::kExited, 123, 7));
  EXPECT_FALSE(node.terminate_process(1, ProcessState::kExited, 124));  // already done
  EXPECT_FALSE(node.terminate_process(99, ProcessState::kExited, 124)); // unknown
  EXPECT_EQ(node.running_process_count(), 1u);
  const ProcessInfo* info = node.find_process(1);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->state, ProcessState::kExited);
  EXPECT_EQ(info->ended_at, 123u);
  EXPECT_EQ(info->exit_code, 7);

  EXPECT_EQ(node.reap(), 1u);
  EXPECT_EQ(node.find_process(1), nullptr);
  EXPECT_EQ(node.processes().size(), 1u);
}

TEST(DaemonTest, StartStopManagesProcessTable) {
  Cluster cluster(small_spec());
  EchoDaemon daemon(cluster, net::NodeId{2}, net::PortId{50});
  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(cluster.node(net::NodeId{2}).running_process_count(), 0u);

  daemon.start();
  EXPECT_TRUE(daemon.alive());
  EXPECT_EQ(cluster.node(net::NodeId{2}).running_process_count(), 1u);
  EXPECT_GT(daemon.pid(), 0u);

  daemon.stop();
  EXPECT_FALSE(daemon.alive());
  const auto* info = cluster.node(net::NodeId{2}).find_process(daemon.pid());
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->state, ProcessState::kExited);
}

TEST(DaemonTest, MessageRoundTrip) {
  Cluster cluster(small_spec());
  EchoDaemon a(cluster, net::NodeId{2}, net::PortId{50});
  EchoDaemon b(cluster, net::NodeId{3}, net::PortId{50});
  a.start();
  b.start();
  auto msg = std::make_shared<NoteMsg>();
  msg->value = 42;
  cluster.fabric().send(a.address(), b.address(), net::NetworkId{0}, msg);
  cluster.engine().run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0], 42);
}

TEST(DaemonDispatchTest, OnTableRoutesByTypeAndDropsUnregistered) {
  Cluster cluster(small_spec());
  EchoDaemon sender(cluster, net::NodeId{2}, net::PortId{50});
  TableDaemon table(cluster, net::NodeId{3}, net::PortId{50});
  sender.start();
  table.start();
  auto ping = std::make_shared<PingMsg>();
  ping->value = 7;
  auto tag = std::make_shared<TagMsg>();
  tag->value = 9;
  auto& fabric = cluster.fabric();
  fabric.send(sender.address(), table.address(), net::NetworkId{0}, ping);
  fabric.send(sender.address(), table.address(), net::NetworkId{1}, tag);
  // Neither type has a handler: both are dropped without a crash.
  fabric.send(sender.address(), table.address(), net::NetworkId{0},
              std::make_shared<StrayMsg>());
  fabric.send(sender.address(), table.address(), net::NetworkId{0},
              std::make_shared<NoteMsg>());
  cluster.engine().run();
  EXPECT_EQ(table.pings, std::vector<int>{7});
  EXPECT_EQ(table.tags, std::vector<int>{9});
  ASSERT_EQ(table.tag_senders.size(), 1u);
  EXPECT_EQ(table.tag_senders[0], sender.address());
}

TEST(DaemonTest, KilledDaemonDropsMessages) {
  Cluster cluster(small_spec());
  EchoDaemon a(cluster, net::NodeId{2}, net::PortId{50});
  EchoDaemon b(cluster, net::NodeId{3}, net::PortId{50});
  a.start();
  b.start();
  b.kill();
  cluster.fabric().send(a.address(), b.address(), net::NetworkId{0},
                        std::make_shared<NoteMsg>());
  cluster.engine().run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(cluster.dead_letters(), 1u);
}

TEST(DaemonTest, UnboundAddressIsDeadLetter) {
  Cluster cluster(small_spec());
  EchoDaemon a(cluster, net::NodeId{2}, net::PortId{50});
  a.start();
  cluster.fabric().send(a.address(), {net::NodeId{3}, net::PortId{60}},
                        net::NetworkId{0}, std::make_shared<NoteMsg>());
  cluster.engine().run();
  EXPECT_EQ(cluster.dead_letters(), 1u);
}

TEST(DaemonTest, DuplicateAddressRejected) {
  Cluster cluster(small_spec());
  EchoDaemon a(cluster, net::NodeId{2}, net::PortId{50});
  EXPECT_THROW(EchoDaemon(cluster, net::NodeId{2}, net::PortId{50}),
               std::logic_error);
}

TEST(DaemonTest, UnbindFreesAddress) {
  Cluster cluster(small_spec());
  auto a = std::make_unique<EchoDaemon>(cluster, net::NodeId{2}, net::PortId{50});
  a->start();
  a->kill();
  a->unbind();
  // Address reusable while the old object still exists.
  EchoDaemon b(cluster, net::NodeId{2}, net::PortId{50});
  b.start();
  EXPECT_EQ(cluster.daemon_at({net::NodeId{2}, net::PortId{50}}), &b);
}

TEST(CrashTest, CrashKillsDaemonsAndProcesses) {
  Cluster cluster(small_spec());
  EchoDaemon daemon(cluster, net::NodeId{2}, net::PortId{50});
  daemon.start();
  auto& node = cluster.node(net::NodeId{2});
  node.add_process(ProcessInfo{.pid = 999, .name = "job", .owner = "u",
                               .state = ProcessState::kRunning});

  cluster.crash_node(net::NodeId{2});
  EXPECT_FALSE(node.alive());
  EXPECT_FALSE(daemon.alive());
  EXPECT_FALSE(daemon.running());
  EXPECT_EQ(node.running_process_count(), 0u);
  EXPECT_FALSE(cluster.fabric().interface_up(net::NodeId{2}, net::NetworkId{0}));

  // Idempotent.
  cluster.crash_node(net::NodeId{2});
  EXPECT_FALSE(node.alive());
}

TEST(CrashTest, RestoreBringsLinksUpButNotDaemons) {
  Cluster cluster(small_spec());
  EchoDaemon daemon(cluster, net::NodeId{2}, net::PortId{50});
  daemon.start();
  cluster.crash_node(net::NodeId{2});
  cluster.restore_node(net::NodeId{2});
  EXPECT_TRUE(cluster.node(net::NodeId{2}).alive());
  EXPECT_TRUE(cluster.fabric().interface_up(net::NodeId{2}, net::NetworkId{0}));
  EXPECT_FALSE(daemon.running());  // recovery is the group service's job
  daemon.start();
  EXPECT_TRUE(daemon.alive());
}

TEST(CrashTest, MessagesToDeadNodeNotDelivered) {
  Cluster cluster(small_spec());
  EchoDaemon a(cluster, net::NodeId{2}, net::PortId{50});
  EchoDaemon b(cluster, net::NodeId{3}, net::PortId{50});
  a.start();
  b.start();
  cluster.crash_node(net::NodeId{3});
  EXPECT_FALSE(cluster.fabric().send(a.address(), b.address(), net::NetworkId{0},
                                     std::make_shared<NoteMsg>()));
}

TEST(ClusterTest, PidsAreUnique) {
  Cluster cluster(small_spec());
  const Pid p1 = cluster.next_pid();
  const Pid p2 = cluster.next_pid();
  EXPECT_NE(p1, p2);
}

TEST(ClusterTest, DaemonsOnNodeLists) {
  Cluster cluster(small_spec());
  EchoDaemon a(cluster, net::NodeId{2}, net::PortId{50});
  EchoDaemon b(cluster, net::NodeId{2}, net::PortId{51});
  EchoDaemon c(cluster, net::NodeId{3}, net::PortId{50});
  EXPECT_EQ(cluster.daemons_on(net::NodeId{2}).size(), 2u);
  EXPECT_EQ(cluster.daemons_on(net::NodeId{3}).size(), 1u);
  EXPECT_TRUE(cluster.daemons_on(net::NodeId{4}).empty());
}

TEST(NodeRoleTest, ToString) {
  EXPECT_EQ(to_string(NodeRole::kServer), "server");
  EXPECT_EQ(to_string(NodeRole::kBackup), "backup");
  EXPECT_EQ(to_string(NodeRole::kCompute), "compute");
  EXPECT_EQ(to_string(ProcessState::kRunning), "running");
  EXPECT_EQ(to_string(ProcessState::kKilled), "killed");
}

}  // namespace
}  // namespace phoenix::cluster
