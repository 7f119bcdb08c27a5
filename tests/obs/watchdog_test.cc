// Tests for the SLO watchdog: hysteresis (exactly one alert across an
// oscillation), rate and stuck detectors, cooldown gating, and the alerts
// section exported into snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/obs/event_ledger.h"
#include "src/obs/health_snapshot.h"
#include "src/obs/watchdog.h"

namespace potemkin {
namespace {

HealthSnapshot Snap(int64_t time_ns, const std::string& metric, double value) {
  HealthSnapshot snapshot;
  snapshot.source = "test";
  snapshot.time_ns = time_ns;
  snapshot.metrics.push_back({metric, value, "count"});
  return snapshot;
}

constexpr int64_t kSecond = 1000000000;

TEST(WatchdogTest, ThresholdRuleFiresAndClearsWithHysteresis) {
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  dog.AddRule({"latency", "m", WatchdogKind::kAbove, /*raise=*/100.0,
               /*clear=*/50.0, Duration::Zero()});

  dog.Evaluate(Snap(1 * kSecond, "m", 80.0));  // below raise: quiet
  EXPECT_FALSE(dog.state(0).firing);
  dog.Evaluate(Snap(2 * kSecond, "m", 150.0));  // crosses raise
  EXPECT_TRUE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 1u);
  // Oscillating in the hysteresis band (50..100) must NOT re-alert or clear.
  dog.Evaluate(Snap(3 * kSecond, "m", 90.0));
  dog.Evaluate(Snap(4 * kSecond, "m", 140.0));
  dog.Evaluate(Snap(5 * kSecond, "m", 70.0));
  EXPECT_TRUE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 1u);  // exactly one alert
  // Only crossing `clear` ends it.
  dog.Evaluate(Snap(6 * kSecond, "m", 40.0));
  EXPECT_FALSE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).clears, 1u);

  // The ledger saw exactly one raise and one clear for rule 0.
  size_t raised = 0;
  size_t cleared = 0;
  for (const auto& r : ledger.Events()) {
    raised += r.type == LedgerEvent::kAlertRaised;
    cleared += r.type == LedgerEvent::kAlertCleared;
  }
  EXPECT_EQ(raised, 1u);
  EXPECT_EQ(cleared, 1u);
}

TEST(WatchdogTest, CooldownGatesReRaise) {
  Watchdog dog;
  dog.AddRule({"flappy", "m", WatchdogKind::kAbove, 100.0, 50.0,
               Duration::Seconds(10)});
  dog.Evaluate(Snap(1 * kSecond, "m", 150.0));  // first raise: ungated
  dog.Evaluate(Snap(2 * kSecond, "m", 10.0));   // clear
  dog.Evaluate(Snap(3 * kSecond, "m", 150.0));  // 2s after raise: cooled down? no
  EXPECT_FALSE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 1u);
  dog.Evaluate(Snap(12 * kSecond, "m", 150.0));  // 11s after raise: allowed
  EXPECT_TRUE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 2u);
}

TEST(WatchdogTest, RateRuleNeedsTwoSamplesAndMeasuresPerSecond) {
  Watchdog dog;
  dog.AddRule({"drops", "m", WatchdogKind::kRateAbove, /*raise=*/100.0,
               /*clear=*/10.0, Duration::Zero()});
  dog.Evaluate(Snap(1 * kSecond, "m", 0.0));  // no rate yet
  EXPECT_FALSE(dog.state(0).firing);
  // +50 over 1s = 50/s: under threshold.
  dog.Evaluate(Snap(2 * kSecond, "m", 50.0));
  EXPECT_FALSE(dog.state(0).firing);
  // +300 over 1s = 300/s: over.
  dog.Evaluate(Snap(3 * kSecond, "m", 350.0));
  EXPECT_TRUE(dog.state(0).firing);
  EXPECT_DOUBLE_EQ(dog.state(0).observed, 300.0);
  // Counter flat again -> rate 0 <= clear.
  dog.Evaluate(Snap(4 * kSecond, "m", 350.0));
  EXPECT_FALSE(dog.state(0).firing);
}

TEST(WatchdogTest, ZeroRateThresholdCatchesFirstEscape) {
  // The containment_breach starter rule uses raise=0: ANY counter growth fires.
  Watchdog dog;
  dog.AddRule({"breach", "m", WatchdogKind::kRateAbove, 0.0, 0.0,
               Duration::Zero()});
  dog.Evaluate(Snap(1 * kSecond, "m", 0.0));
  dog.Evaluate(Snap(2 * kSecond, "m", 0.0));
  EXPECT_FALSE(dog.state(0).firing);
  dog.Evaluate(Snap(3 * kSecond, "m", 1.0));  // one escaped packet
  EXPECT_TRUE(dog.state(0).firing);
}

TEST(WatchdogTest, StuckRuleCountsConsecutiveIdenticalSamples) {
  Watchdog dog;
  WatchdogRule rule;
  rule.name = "wedged";
  rule.metric = "m";
  rule.kind = WatchdogKind::kStuck;
  rule.cooldown = Duration::Zero();
  rule.stuck_samples = 3;
  dog.AddRule(rule);
  dog.Evaluate(Snap(1 * kSecond, "m", 5.0));
  dog.Evaluate(Snap(2 * kSecond, "m", 5.0));
  dog.Evaluate(Snap(3 * kSecond, "m", 5.0));
  EXPECT_FALSE(dog.state(0).firing);  // 2 consecutive repeats so far
  dog.Evaluate(Snap(4 * kSecond, "m", 5.0));  // 3rd repeat
  EXPECT_TRUE(dog.state(0).firing);
  dog.Evaluate(Snap(5 * kSecond, "m", 6.0));  // it moved: clear
  EXPECT_FALSE(dog.state(0).firing);
}

TEST(WatchdogTest, AbsentMetricKeepsRuleState) {
  Watchdog dog;
  dog.AddRule({"latency", "missing", WatchdogKind::kAbove, 100.0, 50.0,
               Duration::Zero()});
  dog.Evaluate(Snap(1 * kSecond, "other", 999.0));
  EXPECT_FALSE(dog.state(0).firing);
  EXPECT_FALSE(dog.state(0).has_prev);
}

TEST(WatchdogTest, MonitorExportsAlertsSectionBeforeMetrics) {
  EventLoop loop;
  MetricRegistry registry;
  double latency = 10.0;
  registry.RegisterProbe(&registry, "clone.p99", "ms", [&] { return latency; });
  HealthMonitor monitor(&loop, &registry, "farm");
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  dog.AddRule({"clone_latency", "clone.p99", WatchdogKind::kAbove, 100.0, 50.0,
               Duration::Zero()});
  monitor.set_watchdog(&dog);

  const HealthSnapshot& quiet = monitor.SampleNow();
  EXPECT_TRUE(quiet.alerts.empty());
  const std::string quiet_json = quiet.ToJson();
  EXPECT_NE(quiet_json.find("\"alerts_schema_version\": 1"), std::string::npos);
  EXPECT_NE(quiet_json.find("\"alerts\": []"), std::string::npos);

  latency = 500.0;
  const HealthSnapshot& paged = monitor.SampleNow();
  ASSERT_EQ(paged.alerts.size(), 1u);
  EXPECT_EQ(paged.alerts[0].rule, "clone_latency");
  EXPECT_EQ(paged.alerts[0].metric, "clone.p99");
  EXPECT_DOUBLE_EQ(paged.alerts[0].value, 500.0);
  EXPECT_DOUBLE_EQ(paged.alerts[0].threshold, 100.0);
  const std::string json = paged.ToJson();
  // The alert object precedes the "metrics" key (the fixed snapshot layout).
  const size_t alerts_at = json.find("\"alerts\"");
  const size_t metrics_at = json.find("\"metrics\"");
  ASSERT_NE(alerts_at, std::string::npos);
  ASSERT_NE(metrics_at, std::string::npos);
  EXPECT_LT(alerts_at, metrics_at);
  EXPECT_NE(json.find("\"alert\": \"clone_latency\""), std::string::npos);
  registry.RemoveProbes(&registry);
}

TEST(WatchdogTest, DefaultFarmRulesCoverTheStarterSet) {
  const auto rules = DefaultFarmRules();
  ASSERT_EQ(rules.size(), 7u);
  std::vector<std::string> names;
  for (const auto& rule : rules) {
    names.push_back(rule.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "clone_latency_p99"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "frame_pool_watermark"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "recycler_backlog"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "containment_breach"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "gateway_drop_rate"),
            names.end());
  // Percentile rules over the latency histograms (sustained-breach form).
  EXPECT_NE(std::find(names.begin(), names.end(), "gateway_datapath_p99"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "clone_total_p99"),
            names.end());
  for (const auto& rule : rules) {
    if (rule.name == "gateway_datapath_p99" || rule.name == "clone_total_p99") {
      EXPECT_EQ(rule.for_windows, 3u) << rule.name;
    } else {
      EXPECT_EQ(rule.for_windows, 1u) << rule.name;
    }
  }
}

TEST(WatchdogTest, ForWindowsRequiresSustainedBreach) {
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  WatchdogRule rule{"hot_p99", "m_p99", WatchdogKind::kAbove, /*raise=*/100.0,
                    /*clear=*/50.0, Duration::Zero()};
  rule.for_windows = 3;
  dog.AddRule(rule);

  // Two consecutive breaches: still quiet.
  dog.Evaluate(Snap(1 * kSecond, "m_p99", 200.0));
  dog.Evaluate(Snap(2 * kSecond, "m_p99", 200.0));
  EXPECT_FALSE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 0u);
  // Third consecutive breach: now sustained, fire once.
  dog.Evaluate(Snap(3 * kSecond, "m_p99", 200.0));
  EXPECT_TRUE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 1u);
}

TEST(WatchdogTest, ForWindowsStreakResetsOnDip) {
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  WatchdogRule rule{"hot_p99", "m_p99", WatchdogKind::kAbove, /*raise=*/100.0,
                    /*clear=*/50.0, Duration::Zero()};
  rule.for_windows = 3;
  dog.AddRule(rule);

  // breach, breach, dip, breach, breach: never 3 in a row -> never fires.
  dog.Evaluate(Snap(1 * kSecond, "m_p99", 200.0));
  dog.Evaluate(Snap(2 * kSecond, "m_p99", 200.0));
  dog.Evaluate(Snap(3 * kSecond, "m_p99", 10.0));
  dog.Evaluate(Snap(4 * kSecond, "m_p99", 200.0));
  dog.Evaluate(Snap(5 * kSecond, "m_p99", 200.0));
  EXPECT_FALSE(dog.state(0).firing);
  EXPECT_EQ(dog.state(0).raises, 0u);
  // A third consecutive breach completes the streak.
  dog.Evaluate(Snap(6 * kSecond, "m_p99", 200.0));
  EXPECT_TRUE(dog.state(0).firing);
}

TEST(WatchdogTest, DefaultForWindowsKeepsFireOnFirstBreach) {
  // for_windows defaults to 1: historical semantics exactly.
  EventLedger ledger(64);
  Watchdog dog(&ledger);
  dog.AddRule({"latency", "m", WatchdogKind::kAbove, /*raise=*/100.0,
               /*clear=*/50.0, Duration::Zero()});
  dog.Evaluate(Snap(1 * kSecond, "m", 150.0));
  EXPECT_TRUE(dog.state(0).firing);
}

}  // namespace
}  // namespace potemkin
