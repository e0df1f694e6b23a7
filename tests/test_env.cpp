// Hardened numeric environment knobs (common/env.hpp): a valid value
// applies as written, anything else falls back to the default whole.
#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace csdml {
namespace {

constexpr const char* kKnobs[] = {"CSDML_TEST_KNOB_A", "CSDML_TEST_KNOB_B",
                                  "CSDML_TEST_KNOB_C", "CSDML_TEST_KNOB_D"};

class EnvKnobTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : kKnobs) ::unsetenv(name);
  }
};

TEST_F(EnvKnobTest, ValidOverridesApply) {
  ::setenv("CSDML_TEST_KNOB_A", "64", 1);
  ::setenv("CSDML_TEST_KNOB_B", "8", 1);      // the lower bound itself
  ::setenv("CSDML_TEST_KNOB_C", "60000", 1);  // the upper bound itself
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_A", 240, 8, 1u << 20), 64u);
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_B", 240, 8, 1u << 20), 8u);
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_C", 100, 1, 60'000), 60'000u);
  // Unset reads the fallback silently.
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_D", 3, 1, 6), 3u);
}

TEST_F(EnvKnobTest, InvalidValuesFallBackWithoutClamping) {
  // Non-numeric, out-of-range, negative, trailing garbage: each knob is
  // ignored as a whole — never clamped to the nearest bound.
  ::setenv("CSDML_TEST_KNOB_A", "1O24", 1);  // letter O, not zero
  ::setenv("CSDML_TEST_KNOB_B", "100", 1);   // above max 64
  ::setenv("CSDML_TEST_KNOB_C", "-3", 1);
  ::setenv("CSDML_TEST_KNOB_D", "250ms", 1);
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_A", 240, 8, 1u << 20), 240u);
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_B", 8, 2, 64), 8u);
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_C", 3, 1, 6), 3u);
  EXPECT_EQ(env_u64("CSDML_TEST_KNOB_D", 100, 1, 60'000), 100u);
}

}  // namespace
}  // namespace csdml
