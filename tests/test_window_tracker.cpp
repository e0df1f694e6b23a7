#include "detect/window_tracker.hpp"

#include <gtest/gtest.h>

namespace csdml::detect {
namespace {

TEST(WindowTracker, StaleVerdictKeepsNewerDeferralOwed) {
  const DetectorConfig config{.window_length = 100, .hop = 25};
  WindowTracker tracker(config);
  for (int call = 1; call <= 100; ++call) {
    EXPECT_EQ(tracker.on_call(0, config), call == 100) << "call " << call;
  }
  tracker.on_enqueued();  // the window at call 100 is in flight
  for (int call = 101; call <= 125; ++call) {
    EXPECT_EQ(tracker.on_call(0, config), call == 125) << "call " << call;
  }
  tracker.on_deferred(config);  // call 125 shed: ring full
  EXPECT_TRUE(tracker.on_forget().deferral);

  // The verdict for call 100 predates the shed; it must not settle it.
  (void)tracker.on_verdict(0.0, config);
  EXPECT_TRUE(tracker.on_forget().deferral);

  // The re-armed window is the next call; accepting it settles the debt.
  EXPECT_TRUE(tracker.on_call(0, config));
  EXPECT_EQ(tracker.calls_seen(), 126u);
  tracker.on_enqueued();
  EXPECT_FALSE(tracker.on_forget().deferral);
}

}  // namespace
}  // namespace csdml::detect
