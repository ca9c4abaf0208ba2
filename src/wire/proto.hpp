// Protocol-buffers wire format: tagged fields, length-delimited nesting.
//
// Fabric stores every structure (blocks, envelopes, transactions,
// endorsements) as nested marshaled protobufs — §3.2 measured up to 23
// layers. ProtoWriter/ProtoReader implement the wire format exactly, so the
// fabric layer's marshal/unmarshal costs and byte sizes are realistic and
// the BMac protocol's "simplified protobuf decoder" post-processor has real
// bytes to decode.
#pragma once

#include <optional>
#include <string_view>

#include "wire/varint.hpp"

namespace bm::wire {

enum class WireType : std::uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

/// Appends fields to an internal buffer. Nested messages are written by
/// marshaling the inner message first and emitting it as a bytes field.
class ProtoWriter {
 public:
  void varint_field(std::uint32_t field, std::uint64_t value);
  void bool_field(std::uint32_t field, bool value);
  void bytes_field(std::uint32_t field, ByteView value);
  void string_field(std::uint32_t field, std::string_view value);
  void message_field(std::uint32_t field, const ProtoWriter& inner);

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void tag(std::uint32_t field, WireType type);
  Bytes buf_;
};

/// Streaming field iterator over a marshaled message. Unknown fields are
/// surfaced to the caller (Fabric skips them); malformed input sets a sticky
/// error flag and stops iteration.
class ProtoReader {
 public:
  explicit ProtoReader(ByteView data) : data_(data) {}

  struct Field {
    std::uint32_t number = 0;
    WireType type = WireType::kVarint;
    std::uint64_t varint = 0;  ///< kVarint / kFixed32 / kFixed64 payload
    ByteView bytes;            ///< kLengthDelimited payload
  };

  /// Next field, or nullopt at end-of-message / on error.
  std::optional<Field> next();

  bool ok() const { return ok_; }
  bool at_end() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Find the first occurrence of a length-delimited field in a message.
/// Returns nullopt if missing or the message is malformed.
std::optional<ByteView> find_bytes_field(ByteView message, std::uint32_t field);

/// All occurrences of a repeated length-delimited field, in order.
std::vector<ByteView> find_repeated_bytes(ByteView message,
                                          std::uint32_t field);

}  // namespace bm::wire
