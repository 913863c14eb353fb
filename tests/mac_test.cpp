#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ctrl/messages.hpp"
#include "mac/dcf_mac.hpp"
#include "obs/trace.hpp"
#include "sched/fifo_queue.hpp"
#include "sched/tag_scheduler.hpp"
#include "topology/builders.hpp"
#include "topology/topology.hpp"

namespace e2efa {
namespace {

class RecordingCallbacks : public MacCallbacks {
 public:
  void on_packet_delivered(const Packet& p) override { delivered.push_back(p); }
  void on_packet_sent(const Packet& p) override { sent.push_back(p); }
  void on_packet_dropped(const Packet& p) override { dropped.push_back(p); }
  std::vector<Packet> delivered, sent, dropped;
};

/// A small harness: one DcfMac + FifoQueue + BEB per node on a topology.
struct MacNet {
  explicit MacNet(Topology t, std::uint64_t seed = 42, int queue_capacity = 100)
      : topo(std::move(t)), channel(sim, topo, 2'000'000) {
    Rng master(seed);
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      queues.push_back(std::make_unique<FifoQueue>(queue_capacity));
      policies.push_back(std::make_unique<BebBackoff>(31));
      cbs.push_back(std::make_unique<RecordingCallbacks>());
      macs.push_back(std::make_unique<DcfMac>(sim, channel, n, /*use_rts_cts=*/true,
                                              *queues.back(), *policies.back(), *cbs.back(),
                                              master.split()));
    }
  }

  void send(NodeId from, NodeId to, std::int64_t seq, std::int32_t subflow = 0) {
    Packet p;
    p.src = from;
    p.dst = to;
    p.seq = seq;
    p.subflow = subflow;
    p.payload_bytes = 512;
    queues[static_cast<std::size_t>(from)]->enqueue(p, sim.now());
    macs[static_cast<std::size_t>(from)]->notify_queue_nonempty();
  }

  Simulator sim;
  Topology topo;
  Channel channel;
  std::vector<std::unique_ptr<FifoQueue>> queues;
  std::vector<std::unique_ptr<BebBackoff>> policies;
  std::vector<std::unique_ptr<RecordingCallbacks>> cbs;
  std::vector<std::unique_ptr<DcfMac>> macs;
};

TEST(DcfMac, SinglePacketFourWayHandshake) {
  MacNet net(make_chain(2));
  net.send(0, 1, 7);
  net.sim.run();
  ASSERT_EQ(net.cbs[1]->delivered.size(), 1u);
  EXPECT_EQ(net.cbs[1]->delivered[0].seq, 7);
  ASSERT_EQ(net.cbs[0]->sent.size(), 1u);
  EXPECT_TRUE(net.cbs[0]->dropped.empty());
  EXPECT_EQ(net.macs[0]->stats().rts_sent, 1u);
  EXPECT_EQ(net.macs[1]->stats().cts_sent, 1u);
  EXPECT_EQ(net.macs[0]->stats().data_sent, 1u);
  EXPECT_EQ(net.macs[1]->stats().ack_sent, 1u);
  EXPECT_EQ(net.macs[0]->stats().timeouts, 0u);
}

TEST(DcfMac, BackToBackPacketsAllDelivered) {
  MacNet net(make_chain(2));
  for (int i = 0; i < 20; ++i) net.send(0, 1, i);
  net.sim.run();
  ASSERT_EQ(net.cbs[1]->delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(net.cbs[1]->delivered[static_cast<std::size_t>(i)].seq, i);
}

TEST(DcfMac, UnreachableDestinationDropsAfterRetries) {
  // Node 2 is out of range of node 0: RTS never answered.
  MacNet net(make_chain(3));
  net.send(0, 2, 1);
  net.sim.run();
  EXPECT_TRUE(net.cbs[2]->delivered.empty());
  ASSERT_EQ(net.cbs[0]->dropped.size(), 1u);
  EXPECT_EQ(net.macs[0]->stats().timeouts, 8u);  // retry_limit 7 + initial
  EXPECT_EQ(net.macs[0]->stats().retry_drops, 1u);
}

TEST(DcfMac, TwoContendingSendersBothSucceed) {
  // 0 -> 1 and 2 -> 1: hidden terminals (0 and 2 out of range). Collisions
  // happen but retries resolve them; everything is delivered eventually.
  MacNet net(make_chain(3));
  for (int i = 0; i < 10; ++i) {
    net.send(0, 1, i, 0);
    net.send(2, 1, i, 1);
  }
  net.sim.run();
  int from0 = 0, from2 = 0;
  for (const Packet& p : net.cbs[1]->delivered) (p.src == 0 ? from0 : from2)++;
  EXPECT_EQ(from0 + static_cast<int>(net.cbs[0]->dropped.size()), 10);
  EXPECT_EQ(from2 + static_cast<int>(net.cbs[2]->dropped.size()), 10);
  // The medium is lightly loaded; most packets should make it.
  EXPECT_GE(from0, 8);
  EXPECT_GE(from2, 8);
}

TEST(DcfMac, InRangeContendersRarelyCollide) {
  // 0 -> 1 and 1 -> 0 hear each other: carrier sense + NAV should keep
  // collisions near zero.
  MacNet net(make_chain(2));
  for (int i = 0; i < 25; ++i) {
    net.send(0, 1, i, 0);
    net.send(1, 0, i, 1);
  }
  net.sim.run();
  EXPECT_EQ(net.cbs[1]->delivered.size(), 25u);
  EXPECT_EQ(net.cbs[0]->delivered.size(), 25u);
  EXPECT_LE(net.macs[0]->stats().timeouts + net.macs[1]->stats().timeouts, 6u);
}

TEST(DcfMac, SaturatedLinkThroughputSane) {
  // Saturated 0 -> 1 at 2 Mbps with 512-byte payloads: the full exchange
  // (DIFS + avg 15.5 slots + RTS/CTS/DATA/ACK + 3 SIFS) costs ~3.0 ms, so
  // expect roughly 300-340 packets/s.
  MacNet net(make_chain(2), /*seed=*/42, /*queue_capacity=*/2000);
  for (int i = 0; i < 2000; ++i) net.send(0, 1, i);
  net.sim.run_until(from_seconds(2.0));
  const auto n = net.cbs[1]->delivered.size();
  EXPECT_GE(n, 550u);
  EXPECT_LE(n, 750u);
}

TEST(DcfMac, OverhearingNodeDefersViaNav) {
  // 1 -> 2 transfer; node 0 (in range of 1) starts contending mid-exchange
  // and must not collide: all packets delivered with zero timeouts at 1.
  MacNet net(make_chain(3));
  for (int i = 0; i < 10; ++i) net.send(1, 2, i, 0);
  net.sim.run_until(3 * kMillisecond);
  for (int i = 0; i < 10; ++i) net.send(0, 1, i, 1);
  net.sim.run();
  EXPECT_EQ(net.cbs[2]->delivered.size(), 10u);
  EXPECT_EQ(net.cbs[1]->delivered.size(), 10u);
}

TEST(DcfMac, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    MacNet net(make_chain(3), seed);
    for (int i = 0; i < 50; ++i) {
      net.send(0, 1, i, 0);
      net.send(2, 1, i, 1);
    }
    net.sim.run();
    return std::make_tuple(net.cbs[1]->delivered.size(), net.macs[0]->stats().timeouts,
                           net.sim.events_processed());
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(std::get<2>(run(123)), std::get<2>(run(456)));
}

TEST(DcfMac, TagPiggybackRoundTrip) {
  // With a TagScheduler attached, the receiver's tag table learns the
  // sender's subflow tag from the exchange.
  Simulator sim;
  Topology topo = make_chain(2);
  Channel channel(sim, topo, 2'000'000);
  Rng master(7);

  TagScheduler sched0({{5, 0.5}}, 50, 2'000'000, 1e-4);
  TagScheduler sched1({{6, 0.5}}, 50, 2'000'000, 1e-4);
  BebBackoff beb0(31), beb1(31);
  RecordingCallbacks cb0, cb1;
  DcfMac mac0(sim, channel, 0, /*use_rts_cts=*/true, sched0, beb0, cb0, master.split(),
              &sched0);
  DcfMac mac1(sim, channel, 1, /*use_rts_cts=*/true, sched1, beb1, cb1, master.split(),
              &sched1);

  Packet p;
  p.src = 0;
  p.dst = 1;
  p.subflow = 5;
  p.payload_bytes = 512;
  sched0.enqueue(p, 0);
  mac0.notify_queue_nonempty();
  sim.run();
  ASSERT_EQ(cb1.delivered.size(), 1u);
  EXPECT_EQ(sched1.tag_table_size(), 1);  // learned subflow 5's tag
}

// ---- Freeze/resume backoff ---------------------------------------------
// The countdown is one event per segment; these pin its timing to the
// slot-by-slot rules: DIFS + slot to the first boundary, freezes credit
// every boundary at or before the busy instant, and an expiry at the
// instant another node starts still transmits (and collides).

/// Backoff policy that always draws the same slot count.
class FixedBackoff : public BackoffPolicy {
 public:
  explicit FixedBackoff(int slots) : slots_(slots) {}
  int draw_slots(Rng&, int, TimeNs) override { return slots_; }

 private:
  int slots_;
};

/// One DcfMac + FifoQueue per node, each with a fixed backoff draw, and a
/// PHY trace to read transmission start times from.
struct FixedNet {
  FixedNet(Topology t, const std::vector<int>& draws)
      : topo(std::move(t)), channel(sim, topo, 2'000'000) {
    channel.set_trace(&trace);
    Rng master(1);
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      queues.push_back(std::make_unique<FifoQueue>(10));
      policies.push_back(
          std::make_unique<FixedBackoff>(draws[static_cast<std::size_t>(n)]));
      cbs.push_back(std::make_unique<RecordingCallbacks>());
      macs.push_back(std::make_unique<DcfMac>(sim, channel, n, /*use_rts_cts=*/true,
                                              *queues.back(), *policies.back(),
                                              *cbs.back(), master.split()));
    }
  }

  void send(NodeId from, NodeId to) {
    Packet p;
    p.src = from;
    p.dst = to;
    p.payload_bytes = 512;
    queues[static_cast<std::size_t>(from)]->enqueue(p, sim.now());
    macs[static_cast<std::size_t>(from)]->notify_queue_nonempty();
  }

  /// Start times of `type` frames sent by node n, in trace order.
  std::vector<TimeNs> tx_times(NodeId n, FrameType type) const {
    std::vector<TimeNs> out;
    for (const TraceRecord& r : trace.records())
      if (r.event() == TraceEvent::kFrameTx && r.node == n &&
          r.a == static_cast<std::int32_t>(type))
        out.push_back(r.t);
    return out;
  }

  Simulator sim;
  Topology topo;
  Channel channel;
  TraceSink trace;
  std::vector<std::unique_ptr<FifoQueue>> queues;
  std::vector<std::unique_ptr<FixedBackoff>> policies;
  std::vector<std::unique_ptr<RecordingCallbacks>> cbs;
  std::vector<std::unique_ptr<DcfMac>> macs;
};

/// A kCtrl broadcast with no payload: pure airtime, no NAV, no handshake.
Frame jam_frame(int bytes) {
  Frame f;
  f.type = FrameType::kCtrl;
  f.rx = kInvalidNode;
  f.bytes = bytes;
  return f;
}

TEST(DcfMacBackoff, DrawOfZeroTransmitsAfterDifsPlusSlot) {
  for (int draw : {0, 1}) {
    SCOPED_TRACE(draw);
    FixedNet net(make_chain(2), {draw, 0});
    net.send(0, 1);
    net.sim.run();
    const std::vector<TimeNs> rts = net.tx_times(0, FrameType::kRts);
    ASSERT_FALSE(rts.empty());
    EXPECT_EQ(rts[0], kDifs + kSlot);
    EXPECT_EQ(net.cbs[1]->delivered.size(), 1u);
  }
}

TEST(DcfMacBackoff, UninterruptedCountdownTransmitsAtKthBoundary) {
  FixedNet net(make_chain(2), {10, 0});
  net.send(0, 1);
  net.sim.run();
  const std::vector<TimeNs> rts = net.tx_times(0, FrameType::kRts);
  ASSERT_FALSE(rts.empty());
  EXPECT_EQ(rts[0], kDifs + 10 * kSlot);
}

TEST(DcfMacBackoff, FreezeAfterJSlotsResumesWithKMinusJ) {
  // k = 10 slots from t = 0: boundaries at f = DIFS + slot, f + slot, ...
  // Node 1 jams after the j-th boundary (or exactly at it: a boundary at
  // the busy instant still counts); node 0 then needs k - j more slots
  // after the medium is idle again plus DIFS.
  const int k = 10;
  const TimeNs f = kDifs + kSlot;
  for (int j : {1, 4, 9}) {
    for (TimeNs offset : {TimeNs{0}, 5 * kMicrosecond}) {
      SCOPED_TRACE(testing::Message() << "j=" << j << " offset=" << offset);
      FixedNet net(make_chain(2), {k, 0});
      net.send(0, 1);
      const TimeNs busy_at = f + (j - 1) * kSlot + offset;
      TimeNs idle_at = -1;
      net.sim.schedule_at(busy_at, [&] { idle_at = net.channel.transmit(1, jam_frame(20)); });
      net.sim.run();
      const std::vector<TimeNs> rts = net.tx_times(0, FrameType::kRts);
      ASSERT_FALSE(rts.empty());
      EXPECT_EQ(rts[0], idle_at + kDifs + (k - j) * kSlot);
    }
  }
}

TEST(DcfMacBackoff, SameInstantExpiriesBothTransmitAndCollide) {
  // All three nodes hear each other. Node 0 draws 5 slots at t = 0, node 2
  // draws 3 slots two slots later: both countdowns end at the same
  // boundary. The younger one (node 2) fires first; node 0's expiry at the
  // instant node 2 starts still fires, so both RTSs collide at node 1.
  FixedNet net(make_chain(3, 100.0), {5, 0, 3});
  net.send(0, 1);
  net.sim.schedule_at(2 * kSlot, [&] { net.send(2, 1); });
  const TimeNs t = kDifs + 5 * kSlot;
  // Past the RTS (80 us) and the SIFS a clean one would be answered after,
  // short of the CTS timeouts that start the retries.
  net.sim.run_until(t + 150 * kMicrosecond);
  ASSERT_FALSE(net.tx_times(0, FrameType::kRts).empty());
  ASSERT_FALSE(net.tx_times(2, FrameType::kRts).empty());
  EXPECT_EQ(net.tx_times(0, FrameType::kRts)[0], t);
  EXPECT_EQ(net.tx_times(2, FrameType::kRts)[0], t);
  std::vector<std::int16_t> first_two;
  for (const TraceRecord& r : net.trace.records())
    if (r.event() == TraceEvent::kFrameTx && first_two.size() < 2)
      first_two.push_back(r.node);
  EXPECT_EQ(first_two, (std::vector<std::int16_t>{2, 0}));
  EXPECT_TRUE(net.tx_times(1, FrameType::kCts).empty());  // nothing decoded
  net.sim.run();
  EXPECT_GE(net.macs[0]->stats().timeouts, 1u);
  EXPECT_GE(net.macs[2]->stats().timeouts, 1u);
}

TEST(DcfMacBackoff, NavSetInTheArmingInstantDefersTheCountdown) {
  // Node 0's control listener queues a frame while an overheard RTS ends,
  // before the MAC records the RTS's NAV. The countdown armed in that
  // instant must not run through the reservation: it restarts at its first
  // boundary and counts from the NAV's end, as a slot-by-slot countdown
  // does. The control draw is the first draw from node 0's MAC stream
  // (FixedNet seeds Rng(1) and splits one stream per node).
  Rng node0 = Rng(1).split();
  const int slots =
      1 + static_cast<int>(node0.uniform_u64(static_cast<std::uint64_t>(kCtrlCw) + 1));
  FixedNet net(make_chain(2), {1, 1});
  net.macs[0]->set_ctrl_listener([&](const Frame&) {
    auto msg = std::make_shared<CtrlMsg>();
    msg->kind = CtrlMsg::Kind::kHello;
    msg->origin = 0;
    net.macs[0]->send_ctrl(std::move(msg), 30);
  });
  Frame rts;
  rts.type = FrameType::kRts;
  rts.rx = 7;  // someone node 0 overhears but is not
  rts.bytes = 20;
  rts.nav = kMillisecond;
  auto payload = std::make_shared<CtrlMsg>();
  payload->kind = CtrlMsg::Kind::kHelloDelta;
  payload->origin = 1;
  rts.ctrl = payload;
  const TimeNs end = net.channel.transmit(1, rts);
  net.sim.run();
  const std::vector<TimeNs> ctrl = net.tx_times(0, FrameType::kCtrl);
  ASSERT_EQ(ctrl.size(), 1u);
  EXPECT_EQ(ctrl[0], end + kMillisecond + kDifs + slots * kSlot);
}

}  // namespace
}  // namespace e2efa
