#include "power/link_model.hh"

#include <cassert>

#include "tech/capacitance.hh"
#include "tech/transistor.hh"

namespace orion::power {

OnChipLinkModel::OnChipLinkModel(const tech::TechNode& tech,
                                 double length_um, unsigned width)
    : tech_(tech), lengthUm_(length_um), width_(width)
{
    assert(length_um >= 0.0 && width > 0);
    const double wire = tech::cw(tech, length_um);
    // Driver sized for the wire load; its diffusion rides on the wire.
    const tech::Transistor drv = tech::sizeDriverForLoad(
        tech, tech::Role::CrossbarOutputDriver, wire);
    cWire_ = wire + tech::cd(tech, drv);
    eWire_ = tech.switchEnergy(cWire_);
}

double
OnChipLinkModel::avgTraversalEnergy() const
{
    return traversalEnergy(width_ / 2);
}

ChipToChipLinkModel::ChipToChipLinkModel(double power_watts)
    : powerWatts_(power_watts)
{
    assert(power_watts >= 0.0);
}

double
ChipToChipLinkModel::energyOver(double cycle_period_s, double cycles) const
{
    assert(cycle_period_s > 0.0 && cycles >= 0.0);
    return powerWatts_ * cycle_period_s * cycles;
}

} // namespace orion::power
