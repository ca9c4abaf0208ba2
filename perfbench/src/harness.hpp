// Shared machinery of the wall-clock benchmark: timers, sample sets, the
// in-memory span log, per-run temp directories and the result record each
// workload fills.
//
// Everything here measures wall clock. Simulated-time outcomes of a
// workload go into its determinism digest instead, never into a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "fabric/validator.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A set of wall-clock samples; quantiles interpolate linearly between
/// order statistics.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Wall clock on a shared host, scaled to a reference CPU speed.
///
/// On a virtual machine that shares its host, a vCPU's speed drifts by up
/// to 2x within seconds and from one run to the next (other tenants' load
/// on the same cores): same-seed runs of one workload differed by 20% in
/// raw wall time. So a timed interval is bracketed by runs of a fixed
/// integer loop (benchmark code, which no change to the library can speed
/// up or slow down): one before, one after, and one every 100 ms of CPU
/// time in between, run from a SIGPROF handler on the timed thread. The
/// interval's wall time, minus the time spent in those in-between loops,
/// is multiplied by the loop's reference time over its mean measured time.
/// The result reads as seconds at the reference loop speed. Timers do not
/// nest.
class ScaledTimer {
 public:
  /// Runs the calibration loop, arms the in-interval sampling, then starts
  /// the clock.
  ScaledTimer();
  ~ScaledTimer();
  ScaledTimer(const ScaledTimer&) = delete;
  ScaledTimer& operator=(const ScaledTimer&) = delete;

  /// Stops the clock and the sampling, runs the calibration loop again and
  /// returns the scaled seconds of the interval. Call once.
  double stop();
  /// A duration measured inside the interval, scaled; valid after stop().
  double scaled(double wall_s) const { return wall_s * factor_; }

  /// Every calibration-loop time measured so far in this process.
  static const Samples& loop_history();
  /// The loop's median time on the reference host (4-vCPU Xeon under KVM,
  /// g++ 12.2 -O3).
  static constexpr double kReferenceLoopSeconds = 1.1e-3;

 private:
  double before_s_;
  Clock::time_point start_;
  double factor_ = 1;
  bool running_ = true;
};

/// Sizes of one workload instance: `full` is the benchmark, `smoke` the
/// tiny instance the smoke test runs.
enum class Scale { kFull, kSmoke };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Scale scale = Scale::kFull;
  fs::path root;     ///< checkout root (holds src/)
  fs::path out_dir;  ///< build-output area: temp dirs and the trace file
};

/// Spans kept in memory and written once, at exit, as Chrome trace-event
/// JSON. When inactive, opening a span costs one branch.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        ///< index of the enclosing span, -1 at the root
    std::int64_t id = -1;   ///< block or request number, -1 when none
  };

  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    int index_;
  };

  void set_active(bool active) { active_ = active; }

  /// Open a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(std::string name, std::int64_t id = -1);

  /// Write all spans as Chrome trace-event JSON. Returns false on I/O error.
  bool write(const fs::path& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  std::int64_t now_ns() const;

  bool active_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A uniquely named directory under the run's output area, removed with
/// everything in it when the object dies. Two concurrent runs never share
/// one.
class TempDir {
 public:
  explicit TempDir(const fs::path& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// One end-to-end figure as printed on the human-readable lines.
struct Figure {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count and what was timed
};

/// What a workload hands back to main().
struct Result {
  std::uint64_t attempted = 0;         ///< checked operations
  std::vector<std::string> failures;   ///< one line per failed check

  double setup_s = 0;                  ///< median over setup_reps set-ups
  int setup_reps = 0;
  double tx_per_s = 0;                 ///< chain txs per second of a rep
  std::vector<Figure> figures;         ///< the workload's own named metrics
  std::map<std::string, double> layers;  ///< per-layer metrics (traced run)
  std::string pins;  ///< deterministic outputs, digested by main()

  /// Count one checked operation; record `what` when it failed.
  void check(bool ok, const std::string& what);
  void figure(std::string name, double value, std::string unit,
              std::string note);
};

/// Build a workload's inputs `reps` times with `make` (timed) and hand each
/// result to `keep` (untimed: keep the first, compare the others). Sets
/// result.setup_s to the median scaled seconds of `make`.
template <class Make, class Keep>
void timed_setup(Result& result, int reps, Make make, Keep keep) {
  Samples wall_s;
  ScaledTimer timer;  // one bracket: set-ups can be far shorter than a loop
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    auto value = make();
    wall_s.add(seconds_since(start));
    keep(std::move(value), i);
  }
  timer.stop();
  result.setup_s = timer.scaled(wall_s.median());
  result.setup_reps = reps;
}

/// Run timed repetitions for about config.seconds of wall clock: at least
/// `min_reps`, and no further rep once another typical one would overrun.
/// `rep` receives the rep index and returns its own timed (scaled) seconds.
/// In a traced run, even reps record spans and odd reps do not; the return
/// value is then the traced reps' median over the untraced reps' median,
/// minus one (0 in an untraced run).
double run_reps(const RunConfig& config, SpanLog& spans, int min_reps,
                const std::function<double(int)>& rep);

/// A scenario file shipped in perfbench/scenarios/, with its `"seed": 7`
/// replaced by the run's seed. Throws when the file or the seed is missing.
std::string scenario_text(const RunConfig& config, const std::string& file);


/// Hex of the SHA-256 of a text.
std::string digest_hex(const std::string& text);
std::string hex(const bm::crypto::Digest& digest);

/// Commit hashes and flags of a validation result, as pin text.
std::string pin_of(const bm::fabric::BlockValidationResult& result);

}  // namespace perfbench
