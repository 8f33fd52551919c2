#include "pdcu/net/fault.hpp"

namespace pdcu::net {

namespace {

bool link_matches(const FaultInjector::Rule& rule, int src, int dst) {
  const bool forward = (rule.src == kAnyNode || rule.src == src) &&
                       (rule.dst == kAnyNode || rule.dst == dst);
  if (forward) return true;
  if (!rule.symmetric) return false;
  return (rule.src == kAnyNode || rule.src == dst) &&
         (rule.dst == kAnyNode || rule.dst == src);
}

}  // namespace

void FaultInjector::add_rule(Rule rule) { rules_.push_back({rule, 0}); }

void FaultInjector::partition(const std::vector<int>& group_a,
                              const std::vector<int>& group_b,
                              std::int64_t from_ms, std::int64_t until_ms) {
  for (const int a : group_a) {
    for (const int b : group_b) {
      Rule rule;
      rule.src = a;
      rule.dst = b;
      rule.mode = Mode::kDrop;
      rule.from_ms = from_ms;
      rule.until_ms = until_ms;
      rule.symmetric = true;
      add_rule(rule);
    }
  }
}

void FaultInjector::kill(int node, std::int64_t at_ms, std::int64_t until_ms) {
  kills_.push_back({node, at_ms, until_ms});
}

bool FaultInjector::alive(int node, std::int64_t now_ms) const {
  for (const KillWindow& window : kills_) {
    if (window.node == node && now_ms >= window.from_ms &&
        now_ms < window.until_ms) {
      return false;
    }
  }
  return true;
}

FaultInjector::Action FaultInjector::intercept(int src, int dst,
                                               std::int64_t now_ms) {
  for (RuleState& state : rules_) {
    const Rule& rule = state.rule;
    if (!link_matches(rule, src, dst)) continue;
    if (now_ms < rule.from_ms || now_ms >= rule.until_ms) continue;
    const std::uint64_t index = state.matched++;
    // index - skip, not skip + limit: the default limit is UINT64_MAX,
    // and skip + UINT64_MAX wraps to below skip.
    if (index < rule.skip || index - rule.skip >= rule.limit) continue;
    ++injected_;
    Action action;
    action.drop = rule.mode == Mode::kDrop;
    action.delay_ms = rule.mode == Mode::kDelay ? rule.delay_ms : 0;
    return action;
  }
  return {};
}

void FaultInjector::clear() {
  rules_.clear();
  kills_.clear();
  injected_ = 0;
}

}  // namespace pdcu::net
