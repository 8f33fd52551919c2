// net::FaultInjector: time-windowed link rules, skip/limit counters,
// partitions, kill windows, and deterministic replay of the rule state.
#include "pdcu/net/fault.hpp"

#include <gtest/gtest.h>

namespace net = pdcu::net;
using net::FaultInjector;

TEST(FaultInjector, NoRulesMeansNoInterference) {
  FaultInjector fault;
  const auto action = fault.intercept(0, 1, 100);
  EXPECT_FALSE(action.drop);
  EXPECT_EQ(action.delay_ms, 0);
  EXPECT_TRUE(fault.alive(0, 100));
  EXPECT_EQ(fault.injected(), 0u);
}

TEST(FaultInjector, DropRuleMatchesLinkAndWindow) {
  FaultInjector fault;
  FaultInjector::Rule rule;
  rule.src = 0;
  rule.dst = 3;
  rule.from_ms = 100;
  rule.until_ms = 200;
  fault.add_rule(rule);

  EXPECT_FALSE(fault.intercept(0, 3, 99).drop);   // before the window
  EXPECT_TRUE(fault.intercept(0, 3, 100).drop);   // window is inclusive-from
  EXPECT_TRUE(fault.intercept(0, 3, 199).drop);
  EXPECT_FALSE(fault.intercept(0, 3, 200).drop);  // exclusive-until
  EXPECT_FALSE(fault.intercept(3, 0, 150).drop);  // reverse link unmatched
  EXPECT_FALSE(fault.intercept(0, 1, 150).drop);  // other dst unmatched
  EXPECT_EQ(fault.injected(), 2u);
}

TEST(FaultInjector, SymmetricRuleMatchesBothDirections) {
  FaultInjector fault;
  FaultInjector::Rule rule;
  rule.src = 0;
  rule.dst = 3;
  rule.symmetric = true;
  fault.add_rule(rule);
  EXPECT_TRUE(fault.intercept(0, 3, 0).drop);
  EXPECT_TRUE(fault.intercept(3, 0, 0).drop);
}

TEST(FaultInjector, AnyNodeWildcard) {
  FaultInjector fault;
  FaultInjector::Rule rule;
  rule.dst = 2;  // src stays kAnyNode
  fault.add_rule(rule);
  EXPECT_TRUE(fault.intercept(0, 2, 0).drop);
  EXPECT_TRUE(fault.intercept(7, 2, 0).drop);
  EXPECT_FALSE(fault.intercept(2, 0, 0).drop);
}

TEST(FaultInjector, SkipAndLimitCountMatchingMessages) {
  FaultInjector fault;
  FaultInjector::Rule rule;
  rule.src = 0;
  rule.dst = 1;
  rule.skip = 2;   // let two through...
  rule.limit = 3;  // ...then fire on exactly three
  fault.add_rule(rule);

  int dropped = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault.intercept(0, 1, i).drop) ++dropped;
  }
  EXPECT_EQ(dropped, 3);
  EXPECT_FALSE(fault.intercept(0, 1, 10).drop);  // limit exhausted
  EXPECT_EQ(fault.injected(), 3u);
}

TEST(FaultInjector, SkipWithTheDefaultLimitFiresForever) {
  // With the default limit (UINT64_MAX), skip + limit would wrap; the
  // rule must still fire on every message after the skipped ones.
  FaultInjector fault;
  FaultInjector::Rule rule;
  rule.src = 0;
  rule.dst = 1;
  rule.skip = 3;
  fault.add_rule(rule);

  for (int i = 0; i < 3; ++i) EXPECT_FALSE(fault.intercept(0, 1, i).drop);
  for (int i = 3; i < 10; ++i) EXPECT_TRUE(fault.intercept(0, 1, i).drop);
  EXPECT_EQ(fault.injected(), 7u);
}

TEST(FaultInjector, DelayRuleReturnsAddedLatency) {
  FaultInjector fault;
  FaultInjector::Rule rule;
  rule.mode = FaultInjector::Mode::kDelay;
  rule.delay_ms = 40;
  fault.add_rule(rule);
  const auto action = fault.intercept(0, 1, 0);
  EXPECT_FALSE(action.drop);
  EXPECT_EQ(action.delay_ms, 40);
  EXPECT_EQ(fault.injected(), 1u);
}

TEST(FaultInjector, FirstMatchingRuleDecides) {
  FaultInjector fault;
  FaultInjector::Rule drop;
  drop.src = 0;
  drop.dst = 1;
  fault.add_rule(drop);
  FaultInjector::Rule delay;
  delay.mode = FaultInjector::Mode::kDelay;
  delay.delay_ms = 99;
  fault.add_rule(delay);

  EXPECT_TRUE(fault.intercept(0, 1, 0).drop);        // first rule wins
  EXPECT_EQ(fault.intercept(2, 1, 0).delay_ms, 99);  // falls to second
}

TEST(FaultInjector, PartitionDropsBothDirectionsBetweenGroups) {
  FaultInjector fault;
  fault.partition({0, 1}, {2, 3}, 100, 200);

  EXPECT_TRUE(fault.intercept(0, 2, 150).drop);
  EXPECT_TRUE(fault.intercept(3, 1, 150).drop);
  EXPECT_FALSE(fault.intercept(0, 1, 150).drop);  // within group A
  EXPECT_FALSE(fault.intercept(2, 3, 150).drop);  // within group B
  EXPECT_FALSE(fault.intercept(0, 2, 250).drop);  // after healing
}

TEST(FaultInjector, KillWindowControlsAlive) {
  FaultInjector fault;
  fault.kill(1, 100, 300);
  EXPECT_TRUE(fault.alive(1, 99));
  EXPECT_FALSE(fault.alive(1, 100));
  EXPECT_FALSE(fault.alive(1, 299));
  EXPECT_TRUE(fault.alive(1, 300));
  EXPECT_TRUE(fault.alive(0, 150));  // other nodes unaffected
}

TEST(FaultInjector, ClearResetsEverything) {
  FaultInjector fault;
  FaultInjector::Rule rule;
  fault.add_rule(rule);
  fault.kill(0, 0);
  (void)fault.intercept(0, 1, 0);
  fault.clear();
  EXPECT_FALSE(fault.intercept(0, 1, 0).drop);
  EXPECT_TRUE(fault.alive(0, 0));
  EXPECT_EQ(fault.injected(), 0u);
}

TEST(FaultInjector, ReplayIsDeterministic) {
  // Two injectors configured identically and fed the same message stream
  // make identical decisions — the property run_sim's reproducibility
  // rests on.
  auto build = [] {
    FaultInjector fault;
    FaultInjector::Rule rule;
    rule.skip = 1;
    rule.limit = 2;
    fault.add_rule(rule);
    fault.partition({0}, {2}, 50, 150);
    return fault;
  };
  auto a = build();
  auto b = build();
  for (int t = 0; t < 200; t += 7) {
    const auto left = a.intercept(t % 3, (t + 1) % 3, t);
    const auto right = b.intercept(t % 3, (t + 1) % 3, t);
    EXPECT_EQ(left.drop, right.drop) << t;
    EXPECT_EQ(left.delay_ms, right.delay_ms) << t;
  }
  EXPECT_EQ(a.injected(), b.injected());
}
