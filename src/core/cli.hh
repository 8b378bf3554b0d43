/**
 * @file
 * Command-line front end: the option tables of orion_sim, orion_sweep,
 * orion_served and orion_submit (core/flags.hh parses and renders
 * them), the validated (NetworkConfig, TrafficConfig, SimConfig)
 * triple they resolve to, and the run report renderers. Lives in the
 * library (rather than the tools' mains) so the parsing logic is
 * unit-testable. `--help` of each tool is the option reference.
 */

#ifndef ORION_CORE_CLI_HH
#define ORION_CORE_CLI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/flags.hh"
#include "core/simulation.hh"

namespace orion::cli {

/** Everything a parsed command line describes. */
struct Options
{
    NetworkConfig network = NetworkConfig::vc16();
    TrafficConfig traffic;
    SimConfig sim;
    /** Emit machine-readable CSV instead of the text report. */
    bool csv = false;
    /** Worker threads for sweep drivers (--jobs): 0 = hardware
     * concurrency (the default), 1 = serial. Results are identical
     * for every value; see SweepOptions::jobs. */
    unsigned jobs = 0;
    /** Append the per-node power map and event counts (text mode). */
    bool breakdown = false;
    /** Write the sampled metric time series here (--metrics-out;
     * empty = don't). Implies a default --sample-interval of 1000
     * cycles when none was given. */
    std::string metricsOut;
    /** Write the Chrome trace-event JSON here (--trace-out; empty =
     * don't). */
    std::string traceOut;
    /**
     * Wall-clock deadline in seconds for a run / each sweep point
     * (--point-timeout; <= 0 disables). Overruns stop cooperatively
     * with StopReason::Deadline. See docs/ROBUSTNESS.md.
     */
    double pointTimeoutSeconds = 0.0;
    /** Attempts per sweep cell before it is declared failed
     * (--point-retries, >= 1; default: the historical 2). */
    unsigned pointRetries = 2;
    /** Milliseconds slept before each retry (--point-backoff-ms). */
    unsigned pointBackoffMs = 0;
    /**
     * Write the run report here in the checkpoint entry line format
     * (--report-out; empty = don't): exact hexfloat doubles, so a
     * parent process (orion_sweep --isolate) can merge it
     * bit-identically with in-process results.
     */
    std::string reportOut;
    /**
     * Structured JSON-lines log sink (--log-out; empty = stderr-only
     * diagnostics, byte-identical to builds without the logger). Also
     * settable via the ORION_LOG environment variable; the flag wins.
     */
    std::string logOut;
    /** Minimum level written to the log sink (--log-level
     * debug|info|warn|error; default info). */
    std::string logLevel = "info";
    /** Write the run manifest JSON here (--manifest-out; empty =
     * don't). See core/manifest.hh for the schema. */
    std::string manifestOut;
    /** --help was requested: print usage() and exit successfully. */
    bool helpRequested = false;
};

/** orion_sim's option table. */
extern const core::flags::Table<Options> kSimFlags;

/**
 * Parse @p args (without argv[0]). Throws std::invalid_argument with
 * a user-facing message, prefixed with @p tool, on unknown options or
 * malformed values.
 */
Options parse(const std::vector<std::string>& args,
              std::string_view tool = "orion_sim");

/** The usage/help text. */
std::string usage();

/** orion_sweep's command line: its own flags plus orion_sim's. */
struct SweepArgs
{
    std::vector<double> rates;
    unsigned seeds = 1;
    std::string metricsDir;
    std::string traceDir;
    std::string checkpointPath;
    std::string resumePath;
    bool isolate = false;
    std::string isolateExe;
    std::uint64_t isolateMemMb = 0;
    std::uint64_t isolateCpuSeconds = 0;
    std::string heartbeatPath;
    double heartbeatIntervalSeconds = 1.0;
    bool progressLine = false;
    bool resources = false;
    /** The orion_sim flags among the arguments, in order: parsed into
     * sim, and forwarded to --isolate workers. */
    std::vector<std::string> simArgs;
    Options sim;
};

/** orion_sweep's own option table. */
extern const core::flags::Table<SweepArgs> kSweepFlags;

/** Parse an orion_sweep command line; --help sets
 * sim.helpRequested. */
SweepArgs parseSweep(const std::vector<std::string>& args);


/** orion_served's command line. */
struct DaemonArgs
{
    std::string socketPath;
    std::string cacheDir;
    std::uint64_t cacheMaxEntries = 4096;
    std::uint64_t cacheSegmentEntries = 256;
    unsigned workers = 1;
    std::uint64_t queueMax = 16;
    double defaultTimeoutSeconds = 0.0;
    unsigned retries = 2;
    unsigned backoffMs = 0;
    /** The orion_sim binary for --isolate; empty runs in process. */
    std::string isolateExe;
    /** Default: <socket>.manifest.json. */
    std::string manifestOut;
    std::string logOut;
    std::string logLevel;
    bool helpRequested = false;
};

extern const core::flags::Table<DaemonArgs> kDaemonFlags;
DaemonArgs parseDaemon(const std::vector<std::string>& args);

/** orion_submit's command line. */
struct SubmitArgs
{
    std::string socketPath;
    /** The verb and, for status/result/cancel, the job id. */
    std::vector<std::string> words;
    std::string rates;
    /** Per-job deadline in seconds; < 0 = the daemon's default. */
    double timeoutSeconds = -1.0;
    bool wait = false;
    std::string outPath;
    unsigned pollMs = 200;
    /** Everything after `--`: orion_sim flags, sent verbatim. */
    std::vector<std::string> simArgs;
    bool helpRequested = false;
};

extern const core::flags::Table<SubmitArgs> kSubmitFlags;
SubmitArgs parseSubmit(const std::vector<std::string>& args);

/** Render @p report as the human-readable run summary. */
std::string formatReport(const Options& opts, const Report& report);

/** Render @p report as one CSV header + one data row. */
std::string formatCsvReport(const Options& opts, const Report& report);

/**
 * Parse a "FIRST:LAST:COUNT" rate-sweep specification into evenly
 * spaced rates. Throws core::flags::Rejected (a std::invalid_argument)
 * on malformed or non-increasing specs.
 */
std::vector<double> parseRateSpec(const std::string& spec);

} // namespace orion::cli

#endif // ORION_CORE_CLI_HH
