#include "net/power_monitor.hh"

#include <algorithm>
#include <cassert>

#include "core/check.hh"

namespace orion::net {

const char*
componentClassName(ComponentClass c)
{
    switch (c) {
      case ComponentClass::Buffer:        return "buffer";
      case ComponentClass::Crossbar:      return "crossbar";
      case ComponentClass::Arbiter:       return "arbiter";
      case ComponentClass::Link:          return "link";
      case ComponentClass::CentralBuffer: return "central_buffer";
    }
    return "unknown";
}

namespace {

/** Clamp a monitored delta into the range a model accepts. */
unsigned
clampDelta(std::uint32_t delta, unsigned limit)
{
    return std::min<std::uint32_t>(delta, limit);
}

} // namespace

template <sim::EventType T>
void
PowerMonitor::onEvent(const sim::Event& ev)
{
    using E = sim::EventType;
    ++eventCounts_[static_cast<unsigned>(T)];

    if constexpr (T == E::BufferWrite) {
        const unsigned f = limits_.bufferBits;
        accumulate(ev.node, ComponentClass::Buffer,
                   models_.buffer->writeEnergy(clampDelta(ev.deltaA, f),
                                               clampDelta(ev.deltaB, f)));
    } else if constexpr (T == E::BufferRead) {
        accumulate(ev.node, ComponentClass::Buffer,
                   models_.buffer->readEnergy());
    } else if constexpr (T == E::Arbitration) {
        if (!models_.switchArbiter)
            return;
        accumulate(ev.node, ComponentClass::Arbiter,
                   models_.switchArbiter->arbitrationEnergy(
                       clampDelta(ev.deltaA, limits_.switchRequests),
                       clampDelta(ev.deltaB, limits_.switchPriority)));
    } else if constexpr (T == E::VcAllocation) {
        if (!models_.vcArbiter)
            return;
        accumulate(ev.node, ComponentClass::Arbiter,
                   models_.vcArbiter->arbitrationEnergy(
                       clampDelta(ev.deltaA, limits_.vcRequests),
                       clampDelta(ev.deltaB, limits_.vcPriority)));
    } else if constexpr (T == E::CrossbarTraversal) {
        if (!models_.crossbar)
            return;
        accumulate(ev.node, ComponentClass::Crossbar,
                   models_.crossbar->traversalEnergy(
                       clampDelta(ev.deltaA, limits_.crossbarWidth)));
    } else if constexpr (T == E::CentralBufferWrite) {
        if (!models_.centralBuffer)
            return;
        const unsigned f = limits_.centralBufferBits;
        const unsigned bits = clampDelta(ev.deltaA, f);
        accumulate(ev.node, ComponentClass::CentralBuffer,
                   models_.centralBuffer->writeEnergy(
                       bits, bits, clampDelta(ev.deltaB, f)));
    } else if constexpr (T == E::CentralBufferRead) {
        if (!models_.centralBuffer)
            return;
        accumulate(ev.node, ComponentClass::CentralBuffer,
                   models_.centralBuffer->readEnergy(
                       clampDelta(ev.deltaA,
                                  limits_.centralBufferBits)));
    } else if constexpr (T == E::LinkTraversal) {
        if (!models_.onChipLink)
            return; // chip-to-chip links are traffic-insensitive
        accumulate(ev.node, ComponentClass::Link,
                   models_.onChipLink->traversalEnergy(
                       clampDelta(ev.deltaA, limits_.linkWidth)));
    }
}

template <sim::EventType T>
void
PowerMonitor::subscribe(sim::EventBus& bus)
{
    bus.subscribeRaw(
        T,
        [](void* ctx, const sim::Event& ev) {
            static_cast<PowerMonitor*>(ctx)->onEvent<T>(ev);
        },
        this);
}

PowerMonitor::PowerMonitor(sim::EventBus& bus, PowerModelSet models,
                           unsigned num_nodes, unsigned links_per_node)
    : models_(std::move(models)),
      numNodes_(num_nodes),
      linksPerNode_(links_per_node),
      energy_(num_nodes)
{
    assert(num_nodes > 0);
    assert(models_.buffer && "input buffer model is mandatory");
    assert(!(models_.onChipLink && models_.chipToChipLink));
    for (auto& node : energy_)
        node.fill(0.0);

    limits_.bufferBits = models_.buffer->params().flitBits;
    if (const auto* m = models_.switchArbiter.get()) {
        limits_.switchRequests = m->params().requests;
        limits_.switchPriority = std::max(m->priorityFlipFlops(), 2u);
    }
    if (const auto* m = models_.vcArbiter.get()) {
        limits_.vcRequests = m->params().requests;
        limits_.vcPriority = std::max(m->priorityFlipFlops(), 2u);
    }
    if (models_.crossbar)
        limits_.crossbarWidth = models_.crossbar->params().width;
    if (models_.centralBuffer) {
        limits_.centralBufferBits =
            models_.centralBuffer->params().flitBits;
    }
    if (models_.onChipLink)
        limits_.linkWidth = models_.onChipLink->width();

    // Raw subscription: the monitor sees millions of events per run,
    // so dispatch must stay a direct function-pointer call. Each type
    // gets its own trampoline: every emit site then calls one fixed
    // target, and the handler needs no switch on the type.
    using E = sim::EventType;
    subscribe<E::BufferWrite>(bus);
    subscribe<E::BufferRead>(bus);
    subscribe<E::Arbitration>(bus);
    subscribe<E::VcAllocation>(bus);
    subscribe<E::CrossbarTraversal>(bus);
    subscribe<E::CentralBufferWrite>(bus);
    subscribe<E::CentralBufferRead>(bus);
    subscribe<E::LinkTraversal>(bus);
    // Counted for statistics; credit wires carry negligible energy
    // and the paper attributes none to them.
    subscribe<E::CreditTransfer>(bus);
}

void
PowerMonitor::accumulate(int node, ComponentClass c, double joules)
{
    assert(node >= 0 && static_cast<unsigned>(node) < numNodes_);
    // Every per-event energy contribution must be non-negative, or the
    // accumulated counters lose their monotonicity guarantee.
    ORION_AUDIT(joules >= 0.0,
                "negative event energy " << joules << " J for node "
                    << node << " class " << componentClassName(c));
    energy_[node][static_cast<unsigned>(c)] += joules;
}

double
PowerMonitor::energy(int node, ComponentClass c) const
{
    assert(node >= 0 && static_cast<unsigned>(node) < numNodes_);
    return energy_[node][static_cast<unsigned>(c)];
}

double
PowerMonitor::totalEnergy(ComponentClass c) const
{
    double t = 0.0;
    for (const auto& node : energy_)
        t += node[static_cast<unsigned>(c)];
    return t;
}

double
PowerMonitor::totalEnergy() const
{
    double t = 0.0;
    for (unsigned c = 0; c < kNumComponentClasses; ++c)
        t += totalEnergy(static_cast<ComponentClass>(c));
    return t;
}

double
PowerMonitor::nodePower(int node, double cycles) const
{
    assert(cycles > 0.0);
    const double f = models_.tech.freqHz;
    double e = 0.0;
    for (unsigned c = 0; c < kNumComponentClasses; ++c)
        e += energy_[node][c];
    double p = e * f / cycles;
    if (models_.chipToChipLink)
        p += linksPerNode_ * models_.chipToChipLink->powerWatts();
    return p;
}

double
PowerMonitor::classPower(ComponentClass c, double cycles) const
{
    assert(cycles > 0.0);
    double p = totalEnergy(c) * models_.tech.freqHz / cycles;
    if (c == ComponentClass::Link && models_.chipToChipLink) {
        p += static_cast<double>(numNodes_) * linksPerNode_ *
             models_.chipToChipLink->powerWatts();
    }
    return p;
}

double
PowerMonitor::networkPower(double cycles) const
{
    double p = 0.0;
    for (unsigned c = 0; c < kNumComponentClasses; ++c)
        p += classPower(static_cast<ComponentClass>(c), cycles);
    return p;
}

std::uint64_t
PowerMonitor::eventCount(sim::EventType type) const
{
    return eventCounts_[static_cast<unsigned>(type)];
}

void
PowerMonitor::reset()
{
    for (auto& node : energy_)
        node.fill(0.0);
    eventCounts_.fill(0);
}

} // namespace orion::net
