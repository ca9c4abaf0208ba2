#include "wire/proto.hpp"

namespace bm::wire {

void ProtoWriter::tag(std::uint32_t field, WireType type) {
  put_varint(buf_, (static_cast<std::uint64_t>(field) << 3) |
                       static_cast<std::uint64_t>(type));
}

void ProtoWriter::varint_field(std::uint32_t field, std::uint64_t value) {
  tag(field, WireType::kVarint);
  put_varint(buf_, value);
}

void ProtoWriter::bool_field(std::uint32_t field, bool value) {
  varint_field(field, value ? 1 : 0);
}

void ProtoWriter::bytes_field(std::uint32_t field, ByteView value) {
  tag(field, WireType::kLengthDelimited);
  put_varint(buf_, value.size());
  append(buf_, value);
}

void ProtoWriter::string_field(std::uint32_t field, std::string_view value) {
  bytes_field(field, ByteView(reinterpret_cast<const std::uint8_t*>(
                                  value.data()),
                              value.size()));
}

void ProtoWriter::message_field(std::uint32_t field, const ProtoWriter& inner) {
  bytes_field(field, inner.bytes());
}

std::optional<ProtoReader::Field> ProtoReader::next() {
  if (!ok_ || pos_ >= data_.size()) return std::nullopt;

  const auto key = get_varint(data_, pos_);
  if (!key) {
    ok_ = false;
    return std::nullopt;
  }
  Field f;
  f.number = static_cast<std::uint32_t>(*key >> 3);
  const auto type_bits = static_cast<std::uint8_t>(*key & 0x7);
  if (f.number == 0) {
    ok_ = false;
    return std::nullopt;
  }

  switch (type_bits) {
    case 0: {
      f.type = WireType::kVarint;
      const auto v = get_varint(data_, pos_);
      if (!v) break;
      f.varint = *v;
      return f;
    }
    case 1: {
      f.type = WireType::kFixed64;
      if (pos_ + 8 > data_.size()) break;
      std::uint64_t v = 0;
      for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
      pos_ += 8;
      f.varint = v;
      return f;
    }
    case 2: {
      f.type = WireType::kLengthDelimited;
      const auto len = get_varint(data_, pos_);
      if (!len || pos_ + *len > data_.size()) break;
      f.bytes = data_.subspan(pos_, *len);
      pos_ += *len;
      return f;
    }
    case 5: {
      f.type = WireType::kFixed32;
      if (pos_ + 4 > data_.size()) break;
      std::uint32_t v = 0;
      for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
      pos_ += 4;
      f.varint = v;
      return f;
    }
    default:
      break;
  }
  ok_ = false;
  return std::nullopt;
}

std::optional<ByteView> find_bytes_field(ByteView message,
                                         std::uint32_t field) {
  ProtoReader reader(message);
  while (auto f = reader.next()) {
    if (f->number == field && f->type == WireType::kLengthDelimited)
      return f->bytes;
  }
  return std::nullopt;
}

std::vector<ByteView> find_repeated_bytes(ByteView message,
                                          std::uint32_t field) {
  std::vector<ByteView> out;
  ProtoReader reader(message);
  while (auto f = reader.next()) {
    if (f->number == field && f->type == WireType::kLengthDelimited)
      out.push_back(f->bytes);
  }
  return out;
}

}  // namespace bm::wire
