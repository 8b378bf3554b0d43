#include "power/crossbar_model.hh"

#include <bit>
#include <cassert>
#include <cmath>

#include "tech/capacitance.hh"
#include "tech/transistor.hh"

namespace orion::power {

using tech::Role;
using tech::Transistor;
using tech::ca;
using tech::cd;
using tech::cg;
using tech::cw;

namespace {

/** ceil(log2(n)) for n >= 1. */
unsigned
log2Ceil(unsigned n)
{
    assert(n >= 1);
    return n <= 1 ? 0 : std::bit_width(n - 1);
}

} // namespace

CrossbarModel::CrossbarModel(const tech::TechNode& tech,
                             const CrossbarParams& params)
    : tech_(tech), params_(params)
{
    assert(params.inputs > 0 && params.outputs > 0 && params.width > 0);

    const Transistor t_cross =
        defaultTransistor(tech, Role::CrossbarCrosspoint);
    // Crossbar datapath tracks are routed at twice the minimum pitch
    // (shielding/differential routing of the wide fast buses).
    const double d_w = 2.0 * tech.wirePitchUm;
    const unsigned w = params.width;

    if (params.kind == CrossbarKind::Matrix) {
        // Each input bus crosses all O output columns; each column is
        // W wires wide at pitch d_w. Symmetrically for output buses.
        inLenUm_ = params.outputs * w * d_w;
        outLenUm_ = params.inputs * w * d_w;

        // Input line: wire + one crosspoint diffusion per output column
        // + the input driver's diffusion. The driver is sized for this
        // load.
        const double in_wire_and_diff =
            cw(tech, inLenUm_) + params.outputs * cd(tech, t_cross);
        const Transistor t_id = sizeDriverForLoad(
            tech, Role::CrossbarInputDriver, in_wire_and_diff);
        cIn_ = in_wire_and_diff + cd(tech, t_id);

        // Output line: wire + one crosspoint diffusion per input row +
        // the output driver's gate. The output driver is sized for the
        // external load plus the line itself.
        const double out_wire_and_diff =
            cw(tech, outLenUm_) + params.inputs * cd(tech, t_cross);
        const Transistor t_od = sizeDriverForLoad(
            tech, Role::CrossbarOutputDriver,
            out_wire_and_diff + params.outputLoadCapF);
        cOut_ = out_wire_and_diff + cg(tech, t_od);

        // Control line: gates of the W crosspoint transistors in one
        // column, plus wire running half an input line on average
        // (control routed alongside inputs, Table 3 note).
        cCtr_ = w * cg(tech, t_cross) + cw(tech, inLenUm_ / 2.0);
    } else {
        // Mux-tree: no long input buses; each output bit is a binary
        // tree of 2:1 pass-gate muxes over I inputs.
        const unsigned depth = log2Ceil(params.inputs);
        inLenUm_ = 0.0;
        // Output wiring still spans the I input bundles.
        outLenUm_ = params.inputs * w * d_w;

        const Transistor t_mux = defaultTransistor(tech, Role::MuxTreePass);
        // Per toggling wire, a root-to-leaf path switches: at each of
        // the `depth` levels, two pass-transistor diffusions (the
        // selected branch's on-device plus the sibling's off-device
        // junction) and the next level's input capacitance.
        const double per_level =
            2.0 * cd(tech, t_mux) + cg(tech, t_mux);
        cIn_ = depth * per_level;

        const double out_wire = cw(tech, outLenUm_);
        const Transistor t_od = sizeDriverForLoad(
            tech, Role::CrossbarOutputDriver,
            out_wire + params.outputLoadCapF);
        cOut_ = out_wire + cg(tech, t_od);

        // Control: each select level gates W mux transistors; a
        // reconfiguration switches one select per level.
        cCtr_ = depth * (w * cg(tech, t_mux)) +
                cw(tech, outLenUm_ / 2.0);
    }
    eWire_ = tech.switchEnergy(cIn_) + tech.switchEnergy(cOut_);
}

double
CrossbarModel::areaUm2() const
{
    if (params_.kind == CrossbarKind::Matrix)
        return inLenUm_ * outLenUm_;
    // Mux-tree area approximated by its output wiring span square.
    return outLenUm_ * outLenUm_;
}

double
CrossbarModel::avgTraversalEnergy() const
{
    return traversalEnergy(params_.width / 2);
}

double
CrossbarModel::controlEnergy() const
{
    return tech_.switchEnergy(cCtr_);
}

} // namespace orion::power
