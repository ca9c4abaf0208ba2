// Shared scenario-config facility.
//
// Every JSON loader in the repo (serve scenarios, SLO rules, fault
// scenarios, composed --scenario files) builds on the same primitives:
// optional readers that keep the caller's default when a key is absent,
// required readers, type checks, ranged numerics, and uniform diagnostics
// that name the file and the JSON path of the offending key, e.g.
//
//   configs/serve_steady.json: serve.traffic.rate_tps: expected number > 0
//
// Usage:
//
//   config::Root root = config::Root::parse(text, "serve", file_label);
//   if (!root.ok()) { *error = root.error(); return std::nullopt; }
//   config::Section s = root.section();
//   s.read_number("rate_tps", &options.rate_tps, config::positive());
//   config::Section traffic = s.object("traffic");
//   traffic.read_number("burst_rate_tps", &config.burst_rate_tps);
//   if (!root.finish()) { *error = root.error(); return std::nullopt; }
//
// Readers on an absent Section are no-ops that keep defaults, so loaders
// can be written as straight-line code; the first error wins and is checked
// once at the end. Every reader marks the member it looks up, and finish()
// rejects the first member nobody looked up (`serve.traffic.rate_tp:
// unknown key`), so a typo cannot silently run at a default. A key written
// twice in one object fails when a reader looks it up (`serve.seed:
// repeated key`). Members whose key starts with `_` are comments (`"_doc":
// "..."`) and never read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.hpp"
#include "sim/simulation.hpp"

namespace bm::config {

/// Numeric constraint attached to a reader; describe() renders the suffix
/// used in diagnostics ("expected number > 0").
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;
  bool max_open = false;

  bool contains(double v) const;
  bool bounded() const;
  /// "> 0", ">= 0", "in [0, 1]", "in (0, 1)", "<= 8" ...
  std::string describe() const;
};

Range positive();       ///< > 0
Range non_negative();   ///< >= 0
Range unit_interval();  ///< in [0, 1]
Range open_unit();      ///< in (0, 1)
Range at_least(double min);

namespace detail {
/// Shared per-parse error state: first error wins, later readers no-op.
struct ErrorSink {
  std::string file;   // optional file label prefixed to diagnostics
  std::string error;  // empty while ok
  bool failed = false;

  bool fail(const std::string& path, std::string_view message);
};
}  // namespace detail

/// A view of one JSON node plus its provenance (path from the root label).
/// Default-constructed or missing-key sections are "absent": every reader
/// keeps the caller's default and reports success.
class Section {
 public:
  Section() = default;
  Section(const json::Value* value, std::string path, detail::ErrorSink* sink)
      : value_(value), path_(std::move(path)), sink_(sink) {}

  bool present() const { return value_ != nullptr; }
  explicit operator bool() const { return present(); }
  const std::string& path() const { return path_; }

  bool is_object() const { return value_ != nullptr && value_->is_object(); }
  bool is_array() const { return value_ != nullptr && value_->is_array(); }
  bool is_number() const { return value_ != nullptr && value_->is_number(); }
  bool is_string() const { return value_ != nullptr && value_->is_string(); }

  // --- navigation ----------------------------------------------------------

  /// Member of any type; absent key (or absent parent) yields an absent
  /// Section with the extended path.
  Section member(std::string_view key) const;
  /// Member that, when present, must be an object (diagnostic otherwise).
  Section object(std::string_view key) const;
  /// Member that, when present, must be an array.
  Section array(std::string_view key) const;
  /// Member that must exist and be an array.
  Section require_array(std::string_view key) const;
  /// Array element; path becomes "path[i]". Absent when out of range or not
  /// an array.
  Section element(std::size_t index) const;
  std::size_t array_size() const;

  // --- optional readers (absent key keeps *out, returns true) --------------

  bool read_number(std::string_view key, double* out,
                   const Range& range = Range{}) const;
  /// Integer readers: the value must be an integer literal inside both
  /// `range` and the target type, read exactly, else "expected an integer
  /// in [lo, hi]".
  bool read_size(std::string_view key, std::size_t* out,
                 const Range& range = Range{}) const;
  bool read_int(std::string_view key, int* out,
                const Range& range = Range{}) const;
  bool read_u64(std::string_view key, std::uint64_t* out,
                const Range& range = Range{}) const;
  bool read_bool(std::string_view key, bool* out) const;
  bool read_string(std::string_view key, std::string* out) const;
  /// Durations are written in the file as milliseconds / microseconds and
  /// stored as sim::Time nanoseconds.
  bool read_time_ms(std::string_view key, sim::Time* out,
                    const Range& range = Range{}) const;
  bool read_time_us(std::string_view key, sim::Time* out,
                    const Range& range = Range{}) const;

  /// String-valued enumeration. Unknown values produce a diagnostic listing
  /// the accepted spellings: `unknown value "x" (a | b | c)`.
  template <typename T>
  bool read_enum(std::string_view key, T* out,
                 std::initializer_list<std::pair<std::string_view, T>> choices)
      const {
    std::string text;
    bool was_present = false;
    if (!read_string_presence(key, &text, &was_present)) return false;
    if (!was_present) return true;
    for (const auto& [name, value] : choices) {
      if (text == name) {
        *out = value;
        return true;
      }
    }
    std::string allowed;
    for (const auto& [name, value] : choices) {
      if (!allowed.empty()) allowed += " | ";
      allowed += name;
    }
    return fail_key(key,
                    "unknown value \"" + text + "\" (" + allowed + ")");
  }

  // --- required readers ----------------------------------------------------

  bool require_number(std::string_view key, double* out,
                      const Range& range = Range{}) const;
  bool require_string(std::string_view key, std::string* out,
                      bool non_empty = true) const;

  // --- direct readers on this node (array elements) ------------------------

  bool value_number(double* out, const Range& range = Range{}) const;

  // --- diagnostics ---------------------------------------------------------

  /// Record "<file>: <path>: <message>"; returns false for use in chains.
  bool fail(std::string_view message) const;
  /// Record "<file>: <path>.<key>: <message>".
  bool fail_key(std::string_view key, std::string_view message) const;

 private:
  /// The member `key`, or null; marks it looked up for Root::finish and
  /// fails when the key appears twice.
  const json::Value* lookup(std::string_view key) const;
  template <typename T>
  bool read_integer(std::string_view key, T* out, const Range& range) const;
  bool read_string_presence(std::string_view key, std::string* out,
                            bool* present) const;
  std::string key_path(std::string_view key) const;

  const json::Value* value_ = nullptr;
  std::string path_;
  detail::ErrorSink* sink_ = nullptr;
};

/// Owns the parsed JSON document and the error sink the Sections write to.
/// Keep the Root alive for as long as any Section derived from it is used.
class Root {
 public:
  /// Parse JSON text. `root_label` seeds the diagnostic path ("serve",
  /// "slo", "faults", "scenario"); `file_label`, when non-empty, prefixes
  /// every diagnostic with the file name. The root must be a JSON object.
  static Root parse(std::string_view text, std::string root_label,
                    std::string file_label = {});
  /// Read `path` from disk and parse it; diagnostics carry the path.
  static Root load(const std::string& path, std::string root_label);

  bool ok() const { return !sink_->failed; }
  const std::string& error() const { return sink_->error; }
  /// Call once after every section parser ran: records "<path>: unknown
  /// key" for the first member no reader looked up (unless an earlier
  /// error won) and returns ok(). One walk of the tree, allocation-free
  /// unless it finds one.
  bool finish() const;
  /// Root object section; absent when parsing failed.
  Section section() const;

  Root(Root&&) = default;
  Root& operator=(Root&&) = default;

 private:
  Root();

  std::optional<json::Value> value_;
  std::string root_label_;
  std::unique_ptr<detail::ErrorSink> sink_;
};

/// Slurp a file; nullopt (and "<path>: cannot open file" in *error) on
/// failure. Shared by loaders that need the text before parsing.
std::optional<std::string> read_file(const std::string& path,
                                     std::string* error = nullptr);

}  // namespace bm::config
