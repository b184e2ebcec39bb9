#include "util/hash.h"

#include <bit>
#include <cstring>

namespace ft::util {

Hash64& Hash64::bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = state_;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
  state_ = h;
  return *this;
}

Hash64& Hash64::f64(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return u64(bits);
}

std::uint64_t hash_bytes(const void* data, std::size_t n) noexcept {
  return Hash64().bytes(data, n).digest();
}

namespace {

constexpr std::uint64_t kWordPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kWordPrime2 = 0xC2B2AE3D27D4EB4Full;

constexpr std::uint64_t word_round(std::uint64_t acc, std::uint64_t w) noexcept {
  return std::rotl(acc + w * kWordPrime2, 31) * kWordPrime1;
}

std::uint64_t load_word(const unsigned char* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

std::uint64_t hash_words(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {kWordPrime1 + kWordPrime2, kWordPrime2, 0,
                           0 - kWordPrime1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int l = 0; l < 4; ++l) lane[l] = word_round(lane[l], load_word(p + i + 8 * l));
  }
  for (; i + 8 <= n; i += 8) lane[0] = word_round(lane[0], load_word(p + i));
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    lane[1] = word_round(lane[1], tail);
  }
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
                    std::rotl(lane[2], 12) + std::rotl(lane[3], 18) + n;
  h ^= h >> 33;
  h *= kWordPrime2;
  h ^= h >> 29;
  h *= kWordPrime1;
  h ^= h >> 32;
  return h;
}

}  // namespace ft::util
