// One-stop observability bundle handed to instrumented components.
//
// Components that want telemetry take an `Observability*` in their config and
// register their metrics and ledger events against it; a null pointer (or the
// process-wide `Default()`) is always safe. Bundling the registry and the event
// ledger keeps component configs to a single pointer and makes per-farm
// isolation trivial — a `Honeyfarm` owns its own bundle, standalone components
// and tests fall back to the shared default.
#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include "src/obs/event_ledger.h"
#include "src/obs/metric_registry.h"

namespace potemkin {

struct Observability {
  MetricRegistry metrics;
  EventLedger ledger;

  // Process-wide bundle for components constructed without an explicit one.
  static Observability& Default() {
    // Leaked like MetricRegistry::Default(): handles may outlive static
    // teardown order.
    static Observability* const obs = new Observability();
    return *obs;
  }
};

// Resolves a possibly-null config pointer to a usable bundle.
inline Observability& ObsOrDefault(Observability* obs) {
  return obs != nullptr ? *obs : Observability::Default();
}

}  // namespace potemkin

#endif  // SRC_OBS_OBSERVABILITY_H_
