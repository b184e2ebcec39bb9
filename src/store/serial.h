/// @file
/// Little-endian field streams for the store's result blobs.
///
/// ByteWriter/ByteReader serialize the compact result artifacts (golden
/// runs, site enumerations, campaign counts) as explicit little-endian
/// fields — never raw struct bytes, so blob payloads are independent of
/// host padding and byte order, matching the stability contract of the
/// store keys (util/hash.h). The reader is bounds-checked: reading past
/// the payload flips a sticky failure bit instead of touching memory, and
/// the store treats a failed decode as a cache miss.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace ft::store {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// A u64 element count, then each u32 / u64 element.
  template <typename T>
    requires std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>
  void array(std::span<const T> v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      if (!v.empty()) {
        buf_.append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
      }
    } else {
      for (const T x : v) le(x, sizeof(T));
    }
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }

 private:
  void le(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  std::string buf_;
};

class ByteReader {
 public:
  ByteReader(const void* data, std::size_t n)
      : p_(static_cast<const unsigned char*>(data)), end_(p_ + n) {}

  [[nodiscard]] std::uint8_t u8() {
    return static_cast<std::uint8_t>(le(1));
  }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  [[nodiscard]] std::uint64_t u64() { return le(8); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  /// ByteWriter::array's field: false (sticky) when the count overruns the
  /// payload.
  template <typename T>
    requires std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t>
  bool array(std::vector<T>& out) {
    const std::uint64_t n = u64();
    if (!ok_ || n > static_cast<std::size_t>(end_ - p_) / sizeof(T)) {
      ok_ = false;
      p_ = end_;
      return false;
    }
    out.resize(n);
    if constexpr (std::endian::native == std::endian::little) {
      if (n > 0) std::memcpy(out.data(), p_, n * sizeof(T));
      p_ += n * sizeof(T);
    } else {
      for (auto& x : out) x = static_cast<T>(le(sizeof(T)));
    }
    return true;
  }

  /// True once all fields decoded in bounds and the payload was consumed
  /// exactly (a trailing-garbage or short payload is a corrupt entry).
  [[nodiscard]] bool done() const noexcept { return ok_ && p_ == end_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  std::uint64_t le(unsigned n) {
    if (static_cast<std::size_t>(end_ - p_) < n) {
      ok_ = false;
      p_ = end_;
      return 0;
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) v |= std::uint64_t{p_[i]} << (8 * i);
    p_ += n;
    return v;
  }

  const unsigned char* p_;
  const unsigned char* end_;
  bool ok_ = true;
};

}  // namespace ft::store
