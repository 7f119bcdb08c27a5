#include "src/obs/watchdog.h"

#include <cmath>
#include <utility>

namespace potemkin {

namespace {

// The last row with the name: among same-name probes, the newest
// registration (as MetricRegistry::ValueOf reads it).
const MetricRegistry::Sample* FindSample(const HealthSnapshot& snapshot,
                                         const std::string& name) {
  for (auto it = snapshot.metrics.rbegin(); it != snapshot.metrics.rend();
       ++it) {
    if (it->name == name) {
      return &*it;
    }
  }
  return nullptr;
}

uint64_t RoundedArg(double value) {
  if (!std::isfinite(value) || value <= 0.0) {
    return 0;
  }
  return static_cast<uint64_t>(std::llround(value));
}

}  // namespace

Watchdog::Watchdog(EventLedger* ledger) : ledger_(ledger) {}

void Watchdog::AddRule(WatchdogRule rule) {
  rules_.push_back(std::move(rule));
  states_.emplace_back();
}

void Watchdog::AddRules(std::vector<WatchdogRule> rules) {
  for (auto& rule : rules) {
    AddRule(std::move(rule));
  }
}

void Watchdog::Raise(size_t index, double observed, int64_t now_ns) {
  RuleState& state = states_[index];
  state.firing = true;
  state.since_ns = now_ns;
  state.last_raise_ns = now_ns;
  ++state.raises;
  if (ledger_ != nullptr) {
    ledger_->Append(LedgerEvent::kAlertRaised, kNoSession, now_ns, index,
                    RoundedArg(observed));
  }
}

void Watchdog::Clear(size_t index, double observed, int64_t now_ns) {
  RuleState& state = states_[index];
  state.firing = false;
  state.since_ns = now_ns;
  ++state.clears;
  if (ledger_ != nullptr) {
    ledger_->Append(LedgerEvent::kAlertCleared, kNoSession, now_ns, index,
                    RoundedArg(observed));
  }
}

void Watchdog::Evaluate(const HealthSnapshot& snapshot) {
  ++evaluations_;
  const int64_t now_ns = snapshot.time_ns;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const WatchdogRule& rule = rules_[i];
    RuleState& state = states_[i];
    const MetricRegistry::Sample* sample = FindSample(snapshot, rule.metric);
    if (sample == nullptr) {
      continue;
    }
    const double value = sample->value;

    bool want_raise = false;
    bool want_clear = false;
    switch (rule.kind) {
      case WatchdogKind::kAbove:
        state.observed = value;
        want_raise = value >= rule.raise;
        want_clear = value <= rule.clear;
        break;
      case WatchdogKind::kBelow:
        state.observed = value;
        want_raise = value <= rule.raise;
        want_clear = value >= rule.clear;
        break;
      case WatchdogKind::kRateAbove: {
        if (!state.has_prev || now_ns <= state.prev_time_ns) {
          break;  // no rate until two samples exist
        }
        const double dt =
            static_cast<double>(now_ns - state.prev_time_ns) / 1e9;
        const double rate = (value - state.prev_value) / dt;
        state.observed = rate;
        want_raise = rate > rule.raise;
        want_clear = rate <= rule.clear;
        break;
      }
      case WatchdogKind::kStuck: {
        if (state.has_prev && value == state.prev_value) {
          ++state.unchanged;
        } else {
          state.unchanged = 0;
        }
        state.observed = static_cast<double>(state.unchanged);
        want_raise = state.unchanged >= rule.stuck_samples;
        want_clear = state.unchanged == 0;
        break;
      }
    }

    // Sustained-breach gating (kStuck already counts windows via
    // `unchanged`): a raise needs `for_windows` consecutive breaching
    // snapshots; any clean snapshot resets the streak.
    if (rule.kind != WatchdogKind::kStuck) {
      state.breach_streak = want_raise ? state.breach_streak + 1 : 0;
      want_raise = state.breach_streak >= rule.for_windows;
    }

    if (!state.firing && want_raise) {
      // Cooldown gates re-raises after a clear; the first raise is ungated.
      const bool cooled = state.raises == 0 ||
                          now_ns - state.last_raise_ns >= rule.cooldown.nanos();
      if (cooled) {
        Raise(i, state.observed, now_ns);
      }
    } else if (state.firing && want_clear) {
      Clear(i, state.observed, now_ns);
    }

    state.prev_value = value;
    state.prev_time_ns = now_ns;
    state.has_prev = true;
  }
}

void Watchdog::AppendAlertSamples(std::vector<AlertSample>* out) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const RuleState& state = states_[i];
    if (!state.firing) {
      continue;
    }
    AlertSample alert;
    alert.rule = rules_[i].name;
    alert.metric = rules_[i].metric;
    alert.value = state.observed;
    alert.threshold = rules_[i].raise;
    alert.firing = true;
    alert.since_ns = state.since_ns;
    out->push_back(std::move(alert));
  }
}

size_t Watchdog::FindRule(const std::string& name) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].name == name) {
      return i;
    }
  }
  return kNoRule;
}

uint64_t Watchdog::total_raises() const {
  uint64_t total = 0;
  for (const RuleState& state : states_) {
    total += state.raises;
  }
  return total;
}

std::vector<WatchdogRule> DefaultFarmRules() {
  std::vector<WatchdogRule> rules;
  // Flash-clone tail latency: the paper's core scalability promise.
  rules.push_back({"clone_latency_p99", "clone.latency_ms_p99",
                   WatchdogKind::kAbove, /*raise=*/1000.0, /*clear=*/500.0,
                   Duration::Seconds(30)});
  // Frame-pool watermark: fraction of physical frames in use across hosts.
  rules.push_back({"frame_pool_watermark", "farm.mem.frame_watermark",
                   WatchdogKind::kAbove, /*raise=*/0.90, /*clear=*/0.75,
                   Duration::Seconds(30)});
  // Recycler backlog: bindings past their retire deadline but still live.
  rules.push_back({"recycler_backlog", "gateway.recycle.backlog",
                   WatchdogKind::kAbove, /*raise=*/256.0, /*clear=*/64.0,
                   Duration::Seconds(30)});
  // Containment breach: any growth of the escape counter is a page.
  rules.push_back({"containment_breach",
                   "gateway.containment.escapes_from_infected",
                   WatchdogKind::kRateAbove, /*raise=*/0.0, /*clear=*/0.0,
                   Duration::Seconds(10)});
  // Gateway drop storm: shed packets per virtual second.
  rules.push_back({"gateway_drop_rate", "gateway.drops.total",
                   WatchdogKind::kRateAbove, /*raise=*/100.0, /*clear=*/10.0,
                   Duration::Seconds(30)});
  // Percentile SLOs over the PR-10 latency histograms: sustained-tail rules
  // (p99 over threshold for 3 consecutive windows), so a single slow sample
  // in one window cannot page. Rules whose metric row is absent (a farm
  // without the instrumented component) simply never evaluate.
  rules.push_back({"gateway_datapath_p99", "gateway.datapath.latency_ns_p99",
                   WatchdogKind::kAbove, /*raise=*/5e8, /*clear=*/2.5e8,
                   Duration::Seconds(30), /*stuck_samples=*/5,
                   /*for_windows=*/3});
  rules.push_back({"clone_total_p99", "clone.phase_ns.total_p99",
                   WatchdogKind::kAbove, /*raise=*/5e8, /*clear=*/2.5e8,
                   Duration::Seconds(30), /*stuck_samples=*/5,
                   /*for_windows=*/3});
  return rules;
}

}  // namespace potemkin
