// Tiny declarative command-line flag parser shared by the tool and bench
// binaries, so every executable spells the common flags the same way
// (--trace-out / --metrics-out / --metrics-text / the telemetry outputs)
// instead of growing its own ad-hoc argv scan.
//
// Deliberately minimal: long flags only ("--name VALUE" or boolean
// "--name"), no grouping, no abbreviation — the binaries are drivers for
// experiments, not general CLIs. Strict mode rejects unknown flags (tools,
// where a typo should fail loudly); permissive mode skips them (benches,
// which accept the observability flags but must not choke on harness args).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace bm::cli {

class ArgParser {
 public:
  enum class Unknown {
    kError,   ///< unknown "--flag" fails the parse (tools)
    kIgnore,  ///< unknown arguments are skipped (benches)
  };

  explicit ArgParser(Unknown unknown = Unknown::kError) : unknown_(unknown) {}

  /// Register "--name VALUE" flags. `name` includes the leading dashes.
  void add_string(std::string name, std::string* out, std::string help);
  void add_int(std::string name, int* out, std::string help);
  void add_size(std::string name, std::size_t* out, std::string help);
  void add_double(std::string name, double* out, std::string help);
  /// Register a boolean "--name" flag (no value; sets *out = true).
  void add_flag(std::string name, bool* out, std::string help);

  /// Parse argv[start, argc). Returns false on a malformed or (in strict
  /// mode) unknown flag; error() then describes the failure.
  bool parse(int argc, char** argv, int start = 1);

  const std::string& error() const { return error_; }

  /// "  --name VALUE  help" lines for usage messages, in registration order.
  std::string help_text() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    bool takes_value;
    std::function<bool(const char*)> apply;  ///< false = unparseable value
  };

  std::vector<Spec> specs_;
  Unknown unknown_;
  std::string error_;
};

/// The flag set every experiment binary shares. Observability outputs are
/// deterministic artifacts (Chrome trace JSON, metrics snapshots). Fault
/// schedules ride in a composed scenario file's "faults" section
/// (`--scenario`, configs/scenario_*.json).
struct CommonFlags {
  std::string trace_out;     ///< --trace-out FILE
  std::string metrics_out;   ///< --metrics-out FILE (JSON snapshot)
  std::string metrics_text;  ///< --metrics-text FILE (Prometheus text)

  // Continuous telemetry (see src/obs/telemetry.hpp).
  double sample_interval_ms = 0;  ///< --sample-interval MS (0 = no sampler)
  std::string timeseries_out;     ///< --timeseries-out FILE (JSON columns)
  std::string timeseries_csv;     ///< --timeseries-csv FILE
  std::string slo_out;            ///< --slo-out FILE (alert log JSON)
  std::string flight_out;         ///< --flight-out FILE (post-mortem dump)

  /// Register the shared flags on `parser`.
  void register_with(ArgParser& parser);

  /// True when any observability output was requested.
  bool wants_obs() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !metrics_text.empty() || wants_telemetry();
  }

  /// True when continuous telemetry (sampler / SLO monitor / flight
  /// recorder) should run during the simulation.
  bool wants_telemetry() const {
    return sample_interval_ms > 0 || !timeseries_out.empty() ||
           !timeseries_csv.empty() || !slo_out.empty() ||
           !flight_out.empty();
  }
};

}  // namespace bm::cli
