#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace csdml {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The first four outputs of the splitmix64 stream seeded with `seed`.
std::array<std::uint64_t, 4> splitmix_state(std::uint64_t seed) {
  std::array<std::uint64_t, 4> state{};
  for (auto& word : state) {
    word = splitmix64(seed);
    seed += kSplitmixGamma;
  }
  return state;
}

}  // namespace

Rng::Rng(std::uint64_t seed) : state_(splitmix_state(seed)) {}

Rng Rng::fork(std::string_view stream_name) const {
  // The stream name's FNV-1a derives the per-subsystem seed.
  Fnv1a name;
  name.bytes(stream_name);
  return Rng{splitmix_state(state_[0] ^ rotl(state_[2], 17) ^ name.value())};
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CSDML_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CSDML_REQUIRE(lo <= hi, "uniform_int(lo, hi) needs lo <= hi");
  // Unsigned arithmetic: hi - lo overflows int64 when the span exceeds
  // INT64_MAX, and the two's-complement bits are the same either way.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Lemire's rejection-free-in-expectation bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto low = static_cast<std::uint64_t>(m);
  if (low < span) {
    const std::uint64_t threshold = (0ULL - span) % span;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * span;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   static_cast<std::uint64_t>(m >> 64));
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal(double log_mean, double log_stddev) {
  return std::exp(normal(log_mean, log_stddev));
}

bool Rng::chance(double probability) { return uniform() < probability; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  CSDML_REQUIRE(!weights.empty(), "weighted_index needs at least one weight");
  double total = 0.0;
  for (const double w : weights) {
    CSDML_REQUIRE(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  CSDML_REQUIRE(total > 0.0, "at least one weight must be positive");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: land on the last bucket
}

}  // namespace csdml
