#include "common/json.hpp"

#include <cstdlib>

namespace bm::json {

const Value* Value::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const Value* found = nullptr;
  for (const auto& [k, v] : object)
    if (k == key) found = &v;
  return found;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    Value v;
    if (!parse_value(v) || (skip_ws(), pos_ != text_.size())) {
      if (error != nullptr)
        *error = error_.empty()
                     ? "trailing data at offset " + std::to_string(pos_)
                     : error_ + " at offset " + std::to_string(pos_);
      return std::nullopt;
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{': return parse_object(out);
      case '[': return parse_array(out);
      case '"':
        out.type = Value::Type::kString;
        return parse_string(out.string);
      case 't':
        out.type = Value::Type::kBool;
        out.boolean = true;
        return literal("true") || fail("bad literal");
      case 'f':
        out.type = Value::Type::kBool;
        out.boolean = false;
        return literal("false") || fail("bad literal");
      case 'n':
        out.type = Value::Type::kNull;
        return literal("null") || fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.type = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key))
        return fail("expected object key");
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':'");
      ++pos_;
      Value v;
      if (!parse_value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Value& out) {
    out.type = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Value v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("bad escape");
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode (no surrogate-pair handling; the serializers
            // only escape control characters).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return fail("bad escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    const auto at = [&](std::string_view chars) {
      return pos_ < text_.size() && chars.find(text_[pos_]) != chars.npos;
    };
    const auto eat_digits = [&] {  // one or more
      const std::size_t first = pos_;
      while (at("0123456789")) ++pos_;
      return pos_ > first;
    };
    if (at("-")) ++pos_;
    if (at("0")) {
      ++pos_;
      if (at("0123456789")) return fail("leading zero in number");
    } else if (!eat_digits()) {
      return fail("expected a value");
    }
    bool integer = true;
    if (at(".")) {
      ++pos_;
      if (!eat_digits()) return fail("expected a digit after '.'");
      integer = false;
    }
    if (at("eE")) {
      ++pos_;
      if (at("+-")) ++pos_;
      if (!eat_digits()) return fail("expected a digit in the exponent");
      integer = false;
    }
    out.type = Value::Type::kNumber;
    std::string literal(text_.substr(start, pos_ - start));
    out.number = std::strtod(literal.c_str(), nullptr);
    if (integer) out.integer = std::move(literal);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace bm::json
