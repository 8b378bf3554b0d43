/**
 * @file
 * The power monitor: the glue between the event subsystem and the
 * component power models (paper Figure 1 / Section 2.1).
 *
 * "Power models in the power simulation library are hooked to these
 * events so when an event occurs during the execution, it triggers the
 * specific power model, which calculates and accumulates the energy
 * consumed."
 *
 * Energy is accumulated per (node, component class); average power is
 * E x f_clk / cycles (paper Section 4.1). Chip-to-chip links draw
 * constant power independent of traffic and are folded in at reporting
 * time.
 */

#ifndef ORION_NET_POWER_MONITOR_HH
#define ORION_NET_POWER_MONITOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "power/arbiter_model.hh"
#include "power/buffer_model.hh"
#include "power/central_buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/link_model.hh"
#include "sim/event.hh"
#include "tech/tech_node.hh"

namespace orion::net {

/** Component classes energy is attributed to (paper Figure 5(c)). */
enum class ComponentClass : unsigned
{
    Buffer,
    Crossbar,
    Arbiter,
    Link,
    CentralBuffer,
};

constexpr unsigned kNumComponentClasses = 5;

/** Human-readable component-class name. */
const char* componentClassName(ComponentClass c);

/** The set of power models instantiated for one router design. */
struct PowerModelSet
{
    tech::TechNode tech;
    /** Input buffer model (always present). */
    std::unique_ptr<power::BufferModel> buffer;
    /** Main crossbar (absent for CB routers). */
    std::unique_ptr<power::CrossbarModel> crossbar;
    /** Switch arbiter (per output port). */
    std::unique_ptr<power::ArbiterModel> switchArbiter;
    /** VC allocation arbiter (VC routers only). */
    std::unique_ptr<power::ArbiterModel> vcArbiter;
    /** Central buffer (CB routers only). */
    std::unique_ptr<power::CentralBufferModel> centralBuffer;
    /** On-chip link (traffic-sensitive); mutually exclusive with
     * chipToChipLink. */
    std::unique_ptr<power::OnChipLinkModel> onChipLink;
    /** Chip-to-chip link (constant power). */
    std::unique_ptr<power::ChipToChipLinkModel> chipToChipLink;
};

/** Subscribes power models to the event bus and accumulates energy. */
class PowerMonitor
{
  public:
    /**
     * @param links_per_node  outgoing inter-router links per node
     *                        (for constant-power chip-to-chip links)
     */
    PowerMonitor(sim::EventBus& bus, PowerModelSet models,
                 unsigned num_nodes, unsigned links_per_node);

    const PowerModelSet& models() const { return models_; }

    /** Dynamic energy accumulated for @p node, class @p c (joules). */
    double energy(int node, ComponentClass c) const;

    /** Dynamic energy accumulated for class @p c over all nodes. */
    double totalEnergy(ComponentClass c) const;

    /** Dynamic energy over all nodes and classes. */
    double totalEnergy() const;

    /**
     * Average power of @p node over @p cycles measured cycles,
     * including constant chip-to-chip link power if configured.
     */
    double nodePower(int node, double cycles) const;

    /** Average power of class @p c across the network. */
    double classPower(ComponentClass c, double cycles) const;

    /** Total network power over @p cycles measured cycles. */
    double networkPower(double cycles) const;

    /** Count of events seen for @p type since the last reset. */
    std::uint64_t eventCount(sim::EventType type) const;

    /** Raw per-(node, class) energy ledger, for audits. */
    const std::vector<std::array<double, kNumComponentClasses>>&
    energyLedger() const
    {
        return energy_;
    }

    /** Zero all accumulated energy (end of warm-up, paper 4.1). */
    void reset();

  private:
    /** Subscribe onEvent<T> to @p bus. */
    template <sim::EventType T>
    void subscribe(sim::EventBus& bus);
    /** Account one event of type @p T. */
    template <sim::EventType T>
    void onEvent(const sim::Event& ev);
    void accumulate(int node, ComponentClass c, double joules);

    PowerModelSet models_;
    /**
     * Upper bounds each event's deltas are clamped to, read from the
     * models once at construction instead of on every event (0 where
     * the model is absent).
     */
    struct DeltaLimits
    {
        unsigned bufferBits = 0;
        unsigned switchRequests = 0;
        unsigned switchPriority = 0;
        unsigned vcRequests = 0;
        unsigned vcPriority = 0;
        unsigned crossbarWidth = 0;
        unsigned centralBufferBits = 0;
        unsigned linkWidth = 0;
    };
    DeltaLimits limits_;
    unsigned numNodes_;
    unsigned linksPerNode_;
    /** energy_[node][class] in joules. */
    std::vector<std::array<double, kNumComponentClasses>> energy_;
    std::array<std::uint64_t, sim::kNumEventTypes> eventCounts_{};
};

} // namespace orion::net

#endif // ORION_NET_POWER_MONITOR_HH
