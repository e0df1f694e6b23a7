// The two non-cryptographic hashes every module shares.
//
// splitmix64 mixes one word with full avalanche (ring points, per-process
// seeds, Rng seeding); Fnv1a digests a byte stream (scenario outcomes,
// fault logs, Rng stream names). Both outputs are part of determinism
// contracts (golden digests, fault-plan digests, forked Rng streams), so
// neither may change.
#pragma once

#include <cstdint>
#include <string_view>

namespace csdml {

/// splitmix64's increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ULL;

/// One splitmix64 output: finalizes `x + kSplitmixGamma`. As a stream,
/// output i of the generator seeded with s is splitmix64(s + i * gamma).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitmixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Incremental 64-bit FNV-1a over fixed-width little-endian encodings, so
/// digests do not depend on host struct layout.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;

  /// `basis` other than kOffset only for digests recorded with one.
  explicit constexpr Fnv1a(std::uint64_t basis = kOffset) : hash_(basis) {}

  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= kPrime;
  }
  void u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void u32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      byte(static_cast<unsigned char>(value >> (8 * i)));
    }
  }
  void boolean(bool value) { byte(value ? 1 : 0); }
  /// The raw bytes of `value`, no length.
  void bytes(std::string_view value) {
    for (const char c : value) byte(static_cast<unsigned char>(c));
  }
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") digest differently.
  void str(std::string_view value) {
    u64(value.size());
    bytes(value);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_;
};

}  // namespace csdml
