#include "power/buffer_model.hh"

#include <cassert>

namespace orion::power {

using tech::Role;
using tech::Transistor;
using tech::ca;
using tech::cd;
using tech::cg;
using tech::cw;

namespace {

/**
 * Sense-amplifier energy per column per read. The paper plugs in the
 * Zyuban-Kogge empirical model; we use the same form — a fixed
 * equivalent capacitance swung through a reduced bitline voltage —
 * folded into a single equivalent full-swing capacitance.
 */
constexpr double kSenseAmpEquivCapF = 6.0e-15;

} // namespace

BufferModel::BufferModel(const tech::TechNode& tech,
                         const BufferParams& params)
    : tech_(tech), params_(params)
{
    assert(params.flits > 0 && params.flitBits > 0);
    assert(params.readPorts > 0 && params.writePorts > 0);

    const double ports = params.readPorts + params.writePorts;
    const unsigned f = params.flitBits;
    const unsigned b = params.flits;

    // L_wl = F (w_cell + 2 (P_r + P_w) d_w)
    wordlineLengthUm_ =
        f * (tech.cellWidthUm + 2.0 * ports * tech.wirePitchUm);
    // L_bl = B (h_cell + (P_r + P_w) d_w)
    bitlineLengthUm_ = b * (tech.cellHeightUm + ports * tech.wirePitchUm);

    const Transistor t_p = defaultTransistor(tech, Role::MemoryPass);
    const Transistor t_c = defaultTransistor(tech, Role::Precharge);
    const Transistor t_m =
        defaultTransistor(tech, Role::MemoryCellInverter);
    const Transistor t_bd = defaultTransistor(tech, Role::BitlineDriver);

    // The wordline driver is sized for its load: the pass-transistor
    // gates plus the wordline wire.
    const double wl_load =
        2.0 * f * cg(tech, t_p) + cw(tech, wordlineLengthUm_);
    const Transistor t_wd =
        sizeDriverForLoad(tech, Role::WordlineDriver, wl_load);

    // C_wl = 2 F C_g(T_p) + C_a(T_wd) + C_w(L_wl)
    cWl_ = 2.0 * f * cg(tech, t_p) + ca(tech, t_wd) +
           cw(tech, wordlineLengthUm_);
    // C_br = B C_d(T_p) + C_d(T_c) + C_w(L_bl)
    cBr_ = b * cd(tech, t_p) + cd(tech, t_c) +
           cw(tech, bitlineLengthUm_);
    // C_bw = B C_d(T_p) + C_a(T_bd) + C_w(L_bl)
    cBw_ = b * cd(tech, t_p) + ca(tech, t_bd) +
           cw(tech, bitlineLengthUm_);
    // C_chg = C_g(T_c)
    cChg_ = cg(tech, t_c);
    // C_cell = 2 (P_r + P_w) C_d(T_p) + 2 C_a(T_m)
    cCell_ = 2.0 * ports * cd(tech, t_p) + 2.0 * ca(tech, t_m);

    eAmp_ = tech.switchEnergy(kSenseAmpEquivCapF);

    // Per-event energy terms, cached once: the capacitances above are
    // fixed for the model's lifetime and read/write energies are
    // evaluated millions of times per run.
    eWl_ = tech.switchEnergy(cWl_);
    eBw_ = tech.switchEnergy(cBw_);
    eCell_ = tech.switchEnergy(cCell_);
    const double e_br = tech.switchEnergy(cBr_);
    const double e_chg = tech.switchEnergy(cChg_);
    eRead_ = eWl_ + params.flitBits * (e_br + 2.0 * e_chg + eAmp_);
}

double
BufferModel::avgWriteEnergy() const
{
    // Random data vs. random previous state: half the differential
    // write-bitline pairs switch, a quarter of the cells flip on
    // average (P(old != new) = 1/2, but cells only dissipate when they
    // actually flip, and the previous row contents are independent of
    // the write-driver history — 1/2 each is the worst case; Orion uses
    // 1/2 for bitlines and 1/2 for cells; we follow bitlines = F/2 and
    // cells = F/2 scaled by flip probability 1/2).
    const unsigned f = params_.flitBits;
    return writeEnergy(f / 2, f / 4);
}

} // namespace orion::power
