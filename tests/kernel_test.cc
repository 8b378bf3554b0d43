/**
 * @file
 * Tests for the simulation kernel: event bus dispatch, registered
 * channels (1-cycle latency), the simulator loop, the recycling
 * object pool behind flit/packet allocation, and bit-identity of the
 * hot-path optimizations on the hardest configuration (faults +
 * rerouting + deadlock recovery under paranoid audits).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/check.hh"
#include "core/config.hh"
#include "core/simulation.hh"
#include "net/fault.hh"
#include "sim/event.hh"
#include "sim/module.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"

namespace {

using namespace orion::sim;

TEST(EventBus, DispatchesToSubscribersOfType)
{
    EventBus bus;
    int buffer_events = 0;
    int arb_events = 0;
    bus.subscribe(EventType::BufferWrite,
                  [&](const Event&) { ++buffer_events; });
    bus.subscribe(EventType::Arbitration,
                  [&](const Event&) { ++arb_events; });

    bus.emit({EventType::BufferWrite, 0, 0, 0, 0, 0});
    bus.emit({EventType::BufferWrite, 1, 0, 3, 4, 1});
    bus.emit({EventType::Arbitration, 0, 0, 0, 0, 2});

    EXPECT_EQ(buffer_events, 2);
    EXPECT_EQ(arb_events, 1);
}

TEST(EventBus, PassesPayloadThrough)
{
    EventBus bus;
    Event seen{};
    bus.subscribe(EventType::LinkTraversal,
                  [&](const Event& e) { seen = e; });
    bus.emit({EventType::LinkTraversal, 7, 3, 128, 9, 42});
    EXPECT_EQ(seen.node, 7);
    EXPECT_EQ(seen.component, 3);
    EXPECT_EQ(seen.deltaA, 128u);
    EXPECT_EQ(seen.deltaB, 9u);
    EXPECT_EQ(seen.cycle, 42u);
}

TEST(EventBus, CountsEvenWithoutSubscribers)
{
    EventBus bus;
    bus.emit({EventType::CreditTransfer, 0, 0, 0, 0, 0});
    bus.emit({EventType::CreditTransfer, 0, 0, 0, 0, 1});
    EXPECT_EQ(bus.emittedCount(EventType::CreditTransfer), 2u);
    EXPECT_EQ(bus.emittedCount(EventType::BufferRead), 0u);
}

TEST(EventBus, MultipleListenersAllFire)
{
    EventBus bus;
    int a = 0;
    int b = 0;
    bus.subscribe(EventType::BufferRead, [&](const Event&) { ++a; });
    bus.subscribe(EventType::BufferRead, [&](const Event&) { ++b; });
    bus.emit({EventType::BufferRead, 0, 0, 0, 0, 0});
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
}

TEST(EventNames, AreUniqueAndNonNull)
{
    std::vector<std::string> names;
    for (unsigned t = 0; t < kNumEventTypes; ++t)
        names.push_back(eventTypeName(static_cast<EventType>(t)));
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_FALSE(names[i].empty());
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
    }
}

TEST(Channel, DeliversNextCycle)
{
    Channel<int> ch;
    ch.write(5);
    EXPECT_FALSE(ch.valid());
    ch.advance();
    ASSERT_TRUE(ch.valid());
    EXPECT_EQ(ch.peek(), 5);
    EXPECT_EQ(ch.read(), 5);
    EXPECT_FALSE(ch.valid());
}

TEST(Channel, EmptyAdvanceDeliversNothing)
{
    Channel<int> ch;
    ch.advance();
    EXPECT_FALSE(ch.valid());
}

TEST(Channel, BackToBackMessages)
{
    Channel<int> ch;
    ch.write(1);
    ch.advance();
    ch.write(2); // staged while 1 is current
    EXPECT_EQ(ch.read(), 1);
    ch.advance();
    EXPECT_EQ(ch.read(), 2);
}

/** A module that counts its cycles and pings a channel. */
class Counter : public Module
{
  public:
    Counter(Channel<int>* out)
        : Module("counter", 0), out_(out)
    {
    }

    void
    cycle(Cycle now) override
    {
        ++cycles_;
        if (out_)
            out_->write(static_cast<int>(now));
    }

    int cycles() const { return cycles_; }

  private:
    Channel<int>* out_;
    int cycles_ = 0;
};

/** A module that records what it receives. */
class Sink : public Module
{
  public:
    Sink(Channel<int>* in)
        : Module("sink", 1), in_(in)
    {
    }

    void
    cycle(Cycle) override
    {
        if (in_->valid())
            received_.push_back(in_->read());
    }

    const std::vector<int>& received() const { return received_; }

  private:
    Channel<int>* in_;
    std::vector<int> received_;
};

TEST(Simulator, RunsModulesEveryCycle)
{
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    sim.run(10);
    EXPECT_EQ(c.cycles(), 10);
    EXPECT_EQ(sim.now(), 10u);
    EXPECT_EQ(sim.moduleCount(), 1u);
}

TEST(Simulator, ChannelAddsExactlyOneCycleLatency)
{
    Simulator sim;
    RegisteredChannel<int> ch;
    Counter producer(&ch);
    Sink consumer(&ch);
    sim.add(&producer);
    sim.add(&consumer);
    sim.addChannel(&ch);

    sim.run(5);
    // Written at cycles 0..4; received at cycles 1..4 => values 0..3.
    ASSERT_EQ(consumer.received().size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(consumer.received()[i], i);
}

TEST(Simulator, RunUntilStopsOnPredicate)
{
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    const bool hit =
        sim.runUntil([&] { return c.cycles() >= 3; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(c.cycles(), 3);
}

TEST(Simulator, RunUntilRespectsCap)
{
    Simulator sim;
    Counter c(nullptr);
    sim.add(&c);
    const bool hit = sim.runUntil([] { return false; }, 7);
    EXPECT_FALSE(hit);
    EXPECT_EQ(sim.now(), 7u);
}

// --- recycling pool ---------------------------------------------------

TEST(RecyclingPool, NoIdentityReuseWithinLifetimeWindow)
{
    // While an object is held, acquire() must never hand out the same
    // address again — recycling only draws from released objects.
    RecyclingPool<int> pool;
    std::vector<std::shared_ptr<int>> live;
    std::set<const int*> addresses;
    for (int i = 0; i < 256; ++i) {
        live.push_back(pool.acquire());
        const bool fresh = addresses.insert(live.back().get()).second;
        EXPECT_TRUE(fresh) << "live object handed out twice";
    }
    EXPECT_EQ(pool.allocatedCount(), 256u);
    EXPECT_EQ(pool.recycledCount(), 0u);
    EXPECT_EQ(pool.liveCount(), 256u);
}

TEST(RecyclingPool, ReleasedObjectsAreRecycledNotReallocated)
{
    RecyclingPool<int> pool;
    auto a = pool.acquire();
    const int* addr = a.get();
    a.reset();
    ASSERT_EQ(pool.freeCount(), 1u);
    auto b = pool.acquire();
    // LIFO free list: the most recently parked object comes back.
    EXPECT_EQ(b.get(), addr);
    EXPECT_EQ(pool.allocatedCount(), 1u);
    EXPECT_EQ(pool.recycledCount(), 1u);
}

TEST(RecyclingPool, LedgerBalances)
{
    // allocated + recycled == returned + live at every point, and
    // once everything is released the whole population is parked.
    RecyclingPool<int> pool;
    std::vector<std::shared_ptr<int>> live;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            live.push_back(pool.acquire());
        EXPECT_EQ(pool.liveCount(), live.size());
        live.resize(live.size() / 2);
        EXPECT_EQ(pool.liveCount(), live.size());
        // Every object ever constructed is either handed out or
        // parked — nothing escapes, nothing is double-counted.
        EXPECT_EQ(pool.allocatedCount(),
                  pool.liveCount() + pool.freeCount());
    }
    live.clear();
    EXPECT_EQ(pool.liveCount(), 0u);
    EXPECT_EQ(pool.freeCount(), pool.allocatedCount());
}

TEST(RecyclingPool, ControlBlocksAreRecycledToo)
{
    // Once warmed up, acquire/release cycles reuse both the objects and
    // the shared_ptr control blocks: no further block is allocated.
    RecyclingPool<int> pool;
    std::vector<std::shared_ptr<int>> live;
    for (int i = 0; i < 8; ++i)
        live.push_back(pool.acquire());
    EXPECT_EQ(pool.blockCount(), 8u);
    for (int round = 0; round < 100; ++round) {
        live.erase(live.begin(), live.begin() + 3);
        for (int i = 0; i < 3; ++i)
            live.push_back(pool.acquire());
    }
    EXPECT_EQ(pool.blockCount(), 8u);
    EXPECT_EQ(pool.allocatedCount(), 8u);
    // A weak reference keeps the block (not the object) alive past
    // the last owner; the block is parked when the weak one goes.
    std::weak_ptr<int> watcher = live.front();
    live.clear();
    EXPECT_EQ(pool.freeCount(), 8u);
    const auto fresh = pool.acquire();
    EXPECT_EQ(pool.blockCount(), 8u);
    watcher.reset();
    EXPECT_EQ(pool.blockCount(), 8u);
}

TEST(RecyclingPool, ObjectsOutlivingThePoolStillRelease)
{
    std::shared_ptr<int> survivor;
    {
        RecyclingPool<int> pool;
        survivor = pool.acquire();
        *survivor = 7;
    }
    // The recycler keeps the shared state alive; releasing after the
    // pool's death must not crash or leak (ASan leg verifies).
    EXPECT_EQ(*survivor, 7);
    survivor.reset();
}

// --- bit-identity of the optimized kernel ------------------------------

/**
 * The hardest end-to-end path: bit errors + a link outage + source
 * rerouting + runtime deadlock detection, audited every 64 cycles at
 * the paranoid level. Two independent runs of the same configuration must
 * agree on every report field bit-for-bit — the arena/pool, batched
 * dispatch, SoA and quiescent-skip optimizations are pure
 * restructurings and may not perturb schedules or RNG streams.
 */
TEST(KernelBitIdentity, FaultRerouteDeadlockRunIsDeterministic)
{
    using orion::NetworkConfig;
    using orion::Report;
    using orion::SimConfig;
    using orion::Simulation;
    using orion::TrafficConfig;
    namespace core = orion::core;

    const core::CheckLevel saved = core::checkLevel();
    core::setCheckLevel(core::CheckLevel::Paranoid);

    NetworkConfig net = NetworkConfig::vc16();
    TrafficConfig traffic;
    traffic.injectionRate = 0.05;
    SimConfig s;
    s.warmupCycles = 500;
    s.samplePackets = 1500;
    s.maxCycles = 100000;
    s.auditCycles = 64;
    s.fault.linkBitErrorRate = 2e-6;
    s.fault.outages.push_back({.start = 1200, .end = 1500, .link = -1});
    s.rerouteOnOutage = true;
    s.deadlockDetect.enabled = true;

    Simulation a(net, traffic, s);
    Simulation b(net, traffic, s);
    const Report ra = a.run();
    const Report rb = b.run();
    core::setCheckLevel(saved);

    EXPECT_TRUE(ra.completed);
    EXPECT_GT(ra.flitsCorrupted + ra.reroutes, 0u)
        << "fault machinery never engaged; test lost its teeth";
    EXPECT_EQ(ra.sampleEjected, rb.sampleEjected);
    EXPECT_EQ(ra.faultLogHash, rb.faultLogHash);
    EXPECT_EQ(ra.reroutes, rb.reroutes);
    EXPECT_EQ(ra.packetsLost, rb.packetsLost);
    EXPECT_EQ(ra.packetsUnreachable, rb.packetsUnreachable);
    EXPECT_EQ(ra.deadlocksDetected, rb.deadlocksDetected);
    EXPECT_EQ(ra.deadlocksRecovered, rb.deadlocksRecovered);
    // Bit-identity, not approximate equality: the doubles must match
    // exactly.
    EXPECT_EQ(ra.avgLatencyCycles, rb.avgLatencyCycles);
    EXPECT_EQ(ra.networkPowerWatts, rb.networkPowerWatts);
}

} // namespace
