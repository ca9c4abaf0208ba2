#include "common/config.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace bm::config {

// --- Range -------------------------------------------------------------------

bool Range::contains(double v) const {
  if (min_open ? v <= min : v < min) return false;
  if (max_open ? v >= max : v > max) return false;
  return true;
}

bool Range::bounded() const {
  return min != -std::numeric_limits<double>::infinity() ||
         max != std::numeric_limits<double>::infinity();
}

namespace {

std::string format_bound(double v) {
  // Bounds are small human-written numbers; trim trailing zeros.
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

std::string Range::describe() const {
  const bool has_min = min != -std::numeric_limits<double>::infinity();
  const bool has_max = max != std::numeric_limits<double>::infinity();
  if (has_min && has_max) {
    return std::string("in ") + (min_open ? "(" : "[") + format_bound(min) +
           ", " + format_bound(max) + (max_open ? ")" : "]");
  }
  if (has_min) return (min_open ? "> " : ">= ") + format_bound(min);
  if (has_max) return (max_open ? "< " : "<= ") + format_bound(max);
  return {};
}

Range positive() { return Range{0, std::numeric_limits<double>::infinity(), true, false}; }
Range non_negative() { return Range{0, std::numeric_limits<double>::infinity(), false, false}; }
Range unit_interval() { return Range{0, 1, false, false}; }
Range open_unit() { return Range{0, 1, true, true}; }
Range at_least(double min) {
  return Range{min, std::numeric_limits<double>::infinity(), false, false};
}

// --- ErrorSink ---------------------------------------------------------------

namespace detail {

bool ErrorSink::fail(const std::string& path, std::string_view message) {
  if (!failed) {
    failed = true;
    error.clear();
    if (!file.empty()) error += file + ": ";
    error += path + ": ";
    error += message;
  }
  return false;
}

}  // namespace detail

// --- Section -----------------------------------------------------------------

namespace {

/// The member `key` of object `node` (the last one when the key repeats),
/// or null. Marks every member of that name looked up, for Root::finish.
const json::Value* lookup(const json::Value* node, std::string_view key) {
  if (node == nullptr) return nullptr;
  const json::Value* found = nullptr;
  for (const auto& [k, v] : node->object)
    if (k == key) {
      v.looked_up = true;
      found = &v;
    }
  return found;
}

}  // namespace

std::string Section::key_path(std::string_view key) const {
  if (path_.empty()) return std::string(key);
  return path_ + "." + std::string(key);
}

bool Section::fail(std::string_view message) const {
  if (sink_ != nullptr) sink_->fail(path_, message);
  return false;
}

bool Section::fail_key(std::string_view key, std::string_view message) const {
  if (sink_ != nullptr) sink_->fail(key_path(key), message);
  return false;
}

Section Section::member(std::string_view key) const {
  return Section(lookup(value_, key), key_path(key), sink_);
}

Section Section::object(std::string_view key) const {
  Section s = member(key);
  if (s.present() && !s.is_object()) {
    fail_key(key, "expected an object");
    return Section(nullptr, s.path(), sink_);
  }
  return s;
}

Section Section::array(std::string_view key) const {
  Section s = member(key);
  if (s.present() && !s.is_array()) {
    fail_key(key, "expected an array");
    return Section(nullptr, s.path(), sink_);
  }
  return s;
}

Section Section::require_array(std::string_view key) const {
  Section s = array(key);
  if (!s.present() && sink_ != nullptr && !sink_->failed)
    fail_key(key, "missing required array");
  return s;
}

Section Section::element(std::size_t index) const {
  const std::string path = path_ + "[" + std::to_string(index) + "]";
  if (value_ == nullptr || !value_->is_array() || index >= value_->array.size())
    return Section(nullptr, path, sink_);
  return Section(&value_->array[index], path, sink_);
}

std::size_t Section::array_size() const {
  return is_array() ? value_->array.size() : 0;
}

bool Section::read_number(std::string_view key, double* out,
                          const Range& range) const {
  const json::Value* v = lookup(value_, key);
  if (v == nullptr) return true;  // optional: keep default
  if (!v->is_number())
    return fail_key(key, range.bounded()
                             ? "expected number " + range.describe()
                             : std::string("expected a number"));
  if (!range.contains(v->number))
    return fail_key(key, "expected number " + range.describe());
  *out = v->number;
  return true;
}

namespace {

/// The integer readers' one body; nothing outside T's range reaches the cast.
template <typename T>
bool read_integer(const Section& s, std::string_view key, T* out,
                  const Range& range) {
  using Limits = std::numeric_limits<T>;
  const json::Value* value = lookup(s.raw(), key);
  if (value == nullptr) return true;  // optional: keep default
  // Anything but a number fails below, as a fraction would.
  const double v = value->is_number() ? value->number : 0.5;
  const double min = static_cast<double>(Limits::min());
  const double past_max = std::ldexp(1.0, Limits::digits);  // max + 1
  if (range.contains(v) && v == std::floor(v) && v >= min && v < past_max) {
    *out = static_cast<T>(v);
    return true;
  }
  // An end of the accepted interval, clipped to the doubles T holds.
  const auto end = [&](double e) {
    return std::to_string(static_cast<T>(
        std::clamp(e, min, std::nextafter(past_max, 0.0))));
  };
  return s.fail_key(
      key,
      "expected an integer in [" +
          end(range.min_open ? std::floor(range.min) + 1
                             : std::ceil(range.min)) +
          ", " +
          end(range.max_open ? std::ceil(range.max) - 1
                             : std::floor(range.max)) +
          "]");
}

}  // namespace

bool Section::read_size(std::string_view key, std::size_t* out,
                        const Range& range) const {
  return read_integer(*this, key, out, range);
}

bool Section::read_int(std::string_view key, int* out,
                       const Range& range) const {
  return read_integer(*this, key, out, range);
}

bool Section::read_u64(std::string_view key, std::uint64_t* out,
                       const Range& range) const {
  return read_integer(*this, key, out, range);
}

bool Section::read_bool(std::string_view key, bool* out) const {
  const json::Value* v = lookup(value_, key);
  if (v == nullptr) return true;
  if (v->type == json::Value::Type::kBool) {
    *out = v->boolean;
    return true;
  }
  if (v->is_number()) {  // legacy spelling: 0 / 1
    *out = v->number != 0.0;
    return true;
  }
  return fail_key(key, "expected a boolean");
}

bool Section::read_string_presence(std::string_view key, std::string* out,
                                   bool* present) const {
  *present = false;
  const json::Value* v = lookup(value_, key);
  if (v == nullptr) return true;
  if (!v->is_string()) return fail_key(key, "expected a string");
  *present = true;
  *out = v->string;
  return true;
}

bool Section::read_string(std::string_view key, std::string* out) const {
  bool present = false;
  std::string text;
  if (!read_string_presence(key, &text, &present)) return false;
  if (present) *out = std::move(text);
  return true;
}

bool Section::read_time_ms(std::string_view key, sim::Time* out,
                           const Range& range) const {
  double ms = static_cast<double>(*out) / static_cast<double>(sim::kMillisecond);
  if (!read_number(key, &ms, range)) return false;
  *out = static_cast<sim::Time>(ms * static_cast<double>(sim::kMillisecond));
  return true;
}

bool Section::read_time_us(std::string_view key, sim::Time* out,
                           const Range& range) const {
  double us = static_cast<double>(*out) / static_cast<double>(sim::kMicrosecond);
  if (!read_number(key, &us, range)) return false;
  *out = static_cast<sim::Time>(us * static_cast<double>(sim::kMicrosecond));
  return true;
}

bool Section::require_number(std::string_view key, double* out,
                             const Range& range) const {
  if (lookup(value_, key) == nullptr)
    return fail_key(key, "missing required number");
  return read_number(key, out, range);
}

bool Section::require_string(std::string_view key, std::string* out,
                             bool non_empty) const {
  if (lookup(value_, key) == nullptr)
    return fail_key(key, "missing required string");
  bool present = false;
  std::string text;
  if (!read_string_presence(key, &text, &present)) return false;
  if (non_empty && text.empty())
    return fail_key(key, "expected a non-empty string");
  *out = std::move(text);
  return true;
}

bool Section::value_number(double* out, const Range& range) const {
  if (value_ == nullptr) return fail("missing required number");
  if (!value_->is_number())
    return fail(range.bounded() ? "expected number " + range.describe()
                                : std::string("expected a number"));
  if (!range.contains(value_->number))
    return fail("expected number " + range.describe());
  *out = value_->number;
  return true;
}

// --- Root --------------------------------------------------------------------

Root::Root() : sink_(std::make_unique<detail::ErrorSink>()) {}

namespace {

/// Finds the first object member below `v` that no reader looked up,
/// skipping `_`-prefixed comment members, and writes its path relative to
/// `v` (".serve.rate_tp", "[2].name") into *path. Allocates only on a hit.
bool find_unread(const json::Value& v, std::string* path) {
  for (const auto& [key, member] : v.object) {
    if (!key.empty() && key.front() == '_') continue;
    if (!member.looked_up || find_unread(member, path)) {
      path->insert(0, "." + key);
      return true;
    }
  }
  for (std::size_t i = 0; i < v.array.size(); ++i)
    if (find_unread(v.array[i], path)) {
      path->insert(0, "[" + std::to_string(i) + "]");
      return true;
    }
  return false;
}

}  // namespace

bool Root::finish() const {
  std::string path;
  if (ok() && value_ && find_unread(*value_, &path))
    sink_->fail(root_label_ + path, "unknown key");
  return ok();
}

Section Root::section() const {
  if (!value_) return Section(nullptr, root_label_, sink_.get());
  return Section(&*value_, root_label_, sink_.get());
}

Root Root::parse(std::string_view text, std::string root_label,
                 std::string file_label) {
  Root root;
  root.root_label_ = std::move(root_label);
  root.sink_->file = std::move(file_label);
  std::string parse_error;
  auto value = json::parse(text, &parse_error);
  if (!value) {
    root.sink_->fail(root.root_label_, "invalid JSON: " + parse_error);
    return root;
  }
  if (!value->is_object()) {
    root.sink_->fail(root.root_label_, "expected an object");
    return root;
  }
  root.value_ = std::move(value);
  return root;
}

Root Root::load(const std::string& path, std::string root_label) {
  std::string error;
  auto text = read_file(path, &error);
  if (!text) {
    Root root;
    root.root_label_ = std::move(root_label);
    root.sink_->error = error;
    root.sink_->failed = true;
    return root;
  }
  return parse(*text, std::move(root_label), path);
}

std::optional<std::string> read_file(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = path + ": cannot open file";
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace bm::config
