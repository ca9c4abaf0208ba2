// Minimal recursive-descent JSON parser.
//
// Lives in common/ so both the observability layer (registry snapshots,
// Chrome traces) and the scenario-config facility (common/config.hpp) can
// parse JSON without external dependencies. Supports the full JSON grammar
// the serializers produce; not meant as a general-purpose library.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bm::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  /// A number written as an integer literal (no fraction, no exponent)
  /// keeps its text here, so config readers can read it exactly; empty
  /// for every other value.
  std::string integer;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered; a repeated key keeps every member (config readers
  /// reject it, find() returns the last).
  std::vector<std::pair<std::string, Value>> object;
  /// Set on an object member when a config::Section reader looks it up;
  /// config::Root::finish reports the members nobody looked up.
  mutable bool looked_up = false;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; null when absent or not an object.
  const Value* find(std::string_view key) const;
};

/// Parse `text`; on failure returns nullopt and (if given) fills `error`
/// with a message including the byte offset.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace bm::json
