/**
 * @file
 * Standalone power-model query front end.
 *
 * The paper (Section 3.2): "We will be distributing our power models
 * ... either as a separate power analysis tool, or as a plug-in to
 * other network simulators." orion_models is that separate tool: it
 * evaluates one Table 2-4 component model for arbitrary parameters
 * and prints its capacitances, per-operation energies and area.
 *
 * Grammar (argv after the program name): COMPONENT [options], where
 * each component accepts exactly the options it reads plus the common
 * technology options; `orion_models --help` lists them.
 */

#ifndef ORION_CORE_MODEL_CLI_HH
#define ORION_CORE_MODEL_CLI_HH

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/flags.hh"
#include "power/arbiter_model.hh"
#include "tech/tech_node.hh"

namespace orion::cli {

/** One parsed orion_models query; unset options take the component's
 * default, or are required. */
struct ModelQuery
{
    std::optional<unsigned> flits, bits, readPorts, writePorts;
    std::optional<unsigned> inputs, outputs, width;
    std::optional<unsigned> requests;
    std::optional<unsigned> banks, rows, routerPorts;
    std::optional<double> lengthUm;
    bool muxTree = false;
    double loadFf = 0.0;
    power::ArbiterKind kind = power::ArbiterKind::Matrix;
    double xbarCtrlFf = 0.0;
    double watts = 3.0;
    double featureUm = 0.1;
    double vdd = 1.2;
    double freqGhz = 2.0;
    bool csv = false;
};

/** A model orion_models evaluates, and the options it reads. */
struct ModelComponent
{
    std::string_view name;
    core::flags::Table<ModelQuery> rows;
    std::string (*evaluate)(const ModelQuery&, const tech::TechNode&);
};

extern const std::span<const ModelComponent> kModelComponents;

/** The technology and output options every component accepts. */
extern const core::flags::Table<ModelQuery> kModelCommonFlags;

/**
 * Evaluate one model query and return its rendered table (text, or
 * CSV when --csv is given). Throws std::invalid_argument with a
 * user-facing message on bad input. An empty/--help query returns the
 * usage text.
 */
std::string runModelQuery(const std::vector<std::string>& args);

/** The usage/help text for orion_models. */
std::string modelUsage();

} // namespace orion::cli

#endif // ORION_CORE_MODEL_CLI_HH
