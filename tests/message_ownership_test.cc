/**
 * @file
 * Every in-flight Message has exactly one owner: the event closure that
 * carries it. Each test sends a counting message down one delivery path,
 * destroys the owner (queue, network, System) before the message arrives,
 * and checks that nothing is left alive. A last test bounds heap growth
 * across many checker schedules run in one process.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "check/replay.hh"
#include "fault/transport.hh"
#include "net/network.hh"
#include "proto/bulksc/bulksc.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace sbulk
{
namespace
{

/** Messages of any Counted<...> type currently alive. */
int liveMessages = 0;

/** @p Base with a live-instance count (clones count too). */
template <typename Base>
struct Counted : Base
{
    template <typename... Args>
    explicit Counted(Args&&... args) : Base(std::forward<Args>(args)...)
    {
        ++liveMessages;
    }
    Counted(const Counted& other) : Base(other) { ++liveMessages; }
    Counted& operator=(const Counted&) = delete;
    ~Counted() override { --liveMessages; }

    SBULK_MESSAGE_CLONE(Counted)
};

MessagePtr
counted(NodeId src, NodeId dst)
{
    return std::make_unique<Counted<Message>>(src, dst, Port::Dir,
                                              MsgClass::SmallCMessage, 0, 8);
}

class MessageOwnership : public ::testing::Test
{
  protected:
    void SetUp() override { liveMessages = 0; }
};

TEST_F(MessageOwnership, SameTileHopFreedWithQueue)
{
    {
        EventQueue eq;
        TorusNetwork net(eq, 16);
        net.send(counted(5, 5));
        EXPECT_EQ(liveMessages, 1);
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, MultiHopRouteFreedMidFlight)
{
    {
        EventQueue eq;
        TorusNetwork net(eq, 16);
        int delivered = 0;
        net.registerHandler(10, Port::Dir, [&](MessagePtr) { ++delivered; });
        net.send(counted(0, 10)); // 4 hops on the 4x4 torus
        eq.run(15);               // past the first hop, short of the last
        EXPECT_EQ(delivered, 0);
        EXPECT_FALSE(eq.empty());
        EXPECT_EQ(liveMessages, 1);
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, JitteredHopFreedWithQueue)
{
    {
        EventQueue eq;
        TorusNetwork net(eq, 16);
        net.setDeliveryJitter([](const Message&) { return Tick(50); });
        net.send(counted(0, 1));
        eq.run(20); // still waiting at the source NIC
        EXPECT_EQ(liveMessages, 1);
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, DirectDeliveryFreedWithQueue)
{
    {
        EventQueue eq;
        DirectNetwork net(eq, 4, 10);
        net.send(counted(0, 3));
        net.send(counted(2, 2));
        EXPECT_EQ(liveMessages, 2);
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, FaultTransportDelayedWireFreedWithQueue)
{
    {
        EventQueue eq;
        DirectNetwork net(eq, 4, 10);
        fault::FaultPlan plan;
        plan.delayRate = 1.0; // every cross-tile send takes wireDelayed
        plan.delayMax = 64;
        fault::FaultTransport transport(net, plan);
        net.setTransport(&transport);
        net.send(counted(0, 3));
        // The delayed original plus the ARQ retransmission copy.
        EXPECT_EQ(liveMessages, 2);
        EXPECT_FALSE(eq.empty());
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, BulkScArbiterQueueFreedWithQueue)
{
    {
        EventQueue eq;
        DirectNetwork net(eq, 4, 5);
        CommitMetrics metrics;
        bk::BkArbiter arb(0, ProtoContext{eq, net, metrics, ProtoConfig{}});
        const CommitId id{ChunkTag{1, 1}, 1};
        arb.handleMessage(std::make_unique<Counted<bk::ArbRequestMsg>>(
            NodeId(1), NodeId(0), id, Signature{}, Signature{},
            std::unordered_map<NodeId, std::vector<Addr>>{},
            std::vector<Addr>{}));
        EXPECT_EQ(liveMessages, 1); // queued behind the service time
        EXPECT_FALSE(eq.empty());
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, CrossShardChannelFreedWhenDropped)
{
    {
        std::vector<std::uint64_t> tile_seq(4, 0);
        EventQueue q0;
        EventQueue q1;
        q0.enableKeyedOrder(&tile_seq);
        q1.enableKeyedOrder(&tile_seq);
        ShardPlan plan(4, 2); // shard 0 = tiles {0, 1}, shard 1 = {2, 3}
        ShardChannels chan(2);
        TorusNetwork net(q0, 4);
        net.configureShards(&plan, {&q0, &q1}, &chan);
        // One hop on the 2x2 torus, into shard 1: the delivery event
        // waits in the 0->1 channel, which is never drained.
        net.send(counted(0, 2));
        EXPECT_TRUE(q0.empty());
        EXPECT_TRUE(q1.empty());
        EXPECT_EQ(liveMessages, 1);
    }
    EXPECT_EQ(liveMessages, 0);
}

TEST_F(MessageOwnership, ShardedSystemStoppedByTickLimitFreesInFlight)
{
    SystemConfig cfg;
    cfg.numProcs = 4; // 2x2 torus; shard 0 = tiles {0, 1}, shard 1 = {2, 3}
    cfg.shards = 2;
    cfg.protocol = ProtocolKind::ScalableBulk;
    cfg.core.chunkInstrs = 250;
    cfg.core.chunksToRun = 4;
    {
        std::vector<std::unique_ptr<ThreadStream>> streams;
        for (NodeId n = 0; n < cfg.numProcs; ++n)
            streams.push_back(std::make_unique<SyntheticStream>(
                SyntheticParams{}, n, cfg.numProcs, cfg.mem.l2.lineBytes,
                cfg.mem.pageBytes));
        System sys(cfg, std::move(streams));
        // Tile 0 -> tile 2 is one cross-shard hop: the delivery goes
        // through the 0->1 channel and lands in shard 1's queue, where
        // the tick limit strands it.
        sys.network().send(counted(0, 2));
        sys.run(4);
        EXPECT_FALSE(sys.allCoresDone());
        // Sent after the run: it stays in the channel, never drained.
        sys.network().send(counted(0, 2));
        EXPECT_EQ(liveMessages, 2);
    }
    EXPECT_EQ(liveMessages, 0);
}

/** Bytes the allocator holds in use (all arenas). */
std::size_t
heapInUse()
{
    return mallinfo2().uordblks;
}

TEST(MessageHeap, CheckerSchedulesRunInBoundedHeap)
{
    check::CheckConfig cfg;
    cfg.protocol = ProtocolKind::SEQ;
    cfg.procs = 4;
    cfg.chunksPerCore = 12;
    std::size_t at100 = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        cfg.seed = seed;
        const check::CheckResult r = check::runSchedule(cfg);
        ASSERT_TRUE(r.completed) << "seed " << seed;
        if (seed == 100)
            at100 = heapInUse();
    }
    // Every schedule's System is gone; its messages must be too. (Under
    // a sanitizer allocator mallinfo2 reads 0 and LeakSanitizer guards
    // the same property.)
    const std::size_t at400 = heapInUse();
    EXPECT_LT(at400, at100 + (std::size_t(4) << 20))
        << "heap grew " << (double(at400) - double(at100)) / (1 << 20)
        << " MB over 300 schedules";
}

} // namespace
} // namespace sbulk
