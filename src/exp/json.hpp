// JSON serialization of sweep results (report::JsonWriter does the
// syntax; this file owns the schema).
//
// Schema (colibri-exp-v2): a top-level object with a "runs" array, one
// entry per submitted RunSpec, each carrying the config summary, every
// repetition's measurements (with the workload's RunResult::extras as
// plain keys), and the aggregate stats across reps.
#pragma once

#include <iosfwd>
#include <vector>

#include "exp/sweep.hpp"

namespace colibri::obs {
class Recorder;
}

namespace colibri::exp {

/// Opt-in extension to the colibri-exp-v2 document, off by default
/// because it changes emitted bytes.
struct JsonOptions {
  /// Emit the recorder's `timeseries` block (interval samples +
  /// histograms) after the runs array.
  const obs::Recorder* recorder = nullptr;
};

/// Serialize one sweep: specs[i] produced results[i] (sizes must match).
void writeJson(std::ostream& os, const std::vector<RunSpec>& specs,
               const std::vector<SweepResult>& results);
void writeJson(std::ostream& os, const std::vector<RunSpec>& specs,
               const std::vector<SweepResult>& results,
               const JsonOptions& opts);

}  // namespace colibri::exp
