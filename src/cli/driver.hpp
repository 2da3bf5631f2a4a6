// Driver: turn parsed Options into a SystemConfig, run the selected
// workload on a fresh System, and print a report::Table with the result.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "cli/options.hpp"
#include "exp/run.hpp"
#include "exp/scenario.hpp"

namespace colibri::cli {

/// Build the SystemConfig for the options + adapter. Returns an error
/// message (and leaves `cfg` unspecified) when the geometry is invalid.
[[nodiscard]] std::optional<std::string> buildConfig(
    const Options& opts, const exp::AdapterSpec& adapter,
    arch::SystemConfig& cfg);

/// Build the RunSpec that colibri-sim runs for the options (litmus modes
/// aside). Returns a usage error (exit 2) and leaves `spec` unspecified
/// when a flag is invalid; throws std::logic_error when a registered
/// workload has no runner, which is a bug in the driver (exit 1).
[[nodiscard]] std::optional<std::string> buildSpec(const Options& opts,
                                                   exp::RunSpec& spec);

/// Print the scenario registry (the --list output).
void printScenarios(std::ostream& os, bool csv);

/// Run one scenario end-to-end and print its result table to `out`.
/// Returns a process exit code; errors are written to `err`.
int runScenario(const Options& opts, std::ostream& out, std::ostream& err);

/// Full CLI entry point: parse args, handle --help/--list, dispatch.
int runMain(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace colibri::cli
