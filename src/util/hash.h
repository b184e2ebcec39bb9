/// @file
/// Stable 64-bit streaming content hash (FNV-1a) for persistent store keys.
///
/// Every key of the on-disk artifact store (src/store) is a content hash of
/// the inputs that fully determine the artifact — laid-out module bytes,
/// campaign/enumeration config, seed. Such keys must be *stable*: the same
/// inputs must produce the same 64-bit value across processes, builds and
/// platforms, forever — a key minted today addresses an artifact read years
/// later. That rules out std::hash (explicitly unspecified across
/// implementations and commonly randomized per-process) and any hash of raw
/// struct bytes (padding, field order and endianness vary).
///
/// Hash64 therefore hashes an explicit byte stream: multi-byte integers are
/// decomposed to bytes little-endian-first by hand, floats are hashed as
/// their IEEE-754 bit patterns, and strings are length-prefixed so that
/// ("ab","c") and ("a","bc") cannot collide by concatenation. The function
/// is 64-bit FNV-1a — not cryptographic, but well-distributed and trivially
/// re-implementable from the spec in docs/architecture.md if the store is
/// ever read by another tool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ft::util {

/// Streaming FNV-1a (64-bit). Append inputs with the typed methods (each
/// returns *this for chaining) and read the digest at any point; appending
/// more input afterwards is allowed and continues the stream.
class Hash64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  constexpr Hash64() = default;
  /// Seed a derived stream (domain separation): equivalent to hashing the
  /// tag before any other input.
  constexpr explicit Hash64(std::string_view domain_tag) { str(domain_tag); }

  constexpr Hash64& byte(std::uint8_t b) noexcept {
    state_ = (state_ ^ b) * kPrime;
    return *this;
  }
  Hash64& bytes(const void* data, std::size_t n) noexcept;

  // Multi-byte integers are fed to the stream LSB first regardless of the
  // host's byte order — the "endianness pin" that keeps digests portable.
  constexpr Hash64& u16(std::uint16_t v) noexcept { return le(v, 2); }
  constexpr Hash64& u32(std::uint32_t v) noexcept { return le(v, 4); }
  constexpr Hash64& u64(std::uint64_t v) noexcept { return le(v, 8); }
  constexpr Hash64& i64(std::int64_t v) noexcept {
    return u64(static_cast<std::uint64_t>(v));
  }
  constexpr Hash64& boolean(bool v) noexcept {
    return byte(v ? std::uint8_t{1} : std::uint8_t{0});
  }
  /// IEEE-754 bit pattern (so -0.0 != 0.0 and every NaN payload is itself).
  Hash64& f64(double v) noexcept;
  /// Length-prefixed, so adjacent strings cannot collide by concatenation.
  constexpr Hash64& str(std::string_view s) noexcept {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
    return *this;
  }

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept {
    return state_;
  }

 private:
  constexpr Hash64& le(std::uint64_t v, unsigned n) noexcept {
    for (unsigned i = 0; i < n; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot FNV-1a over a byte buffer (e.g. a serialized payload checksum).
[[nodiscard]] std::uint64_t hash_bytes(const void* data, std::size_t n) noexcept;

/// Fast checksum of a bulk buffer (trace columns, megabytes at a time):
/// four independent multiply-rotate lanes over little-endian 64-bit words,
/// the trailing bytes zero-padded into one last word, then a final
/// avalanche mixing in the length. Several times the throughput
/// of byte-serial FNV-1a; stable across processes like Hash64, but its
/// words are read in host byte order, so it checks files that carry an
/// endianness mark (store/format.h). A corruption check, not a key.
[[nodiscard]] std::uint64_t hash_words(const void* data,
                                       std::size_t n) noexcept;

}  // namespace ft::util
