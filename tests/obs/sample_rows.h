// Test helper: every row of one MetricRegistry::VisitSamples walk, in order.
#ifndef TESTS_OBS_SAMPLE_ROWS_H_
#define TESTS_OBS_SAMPLE_ROWS_H_

#include <string>
#include <vector>

#include "src/obs/metric_registry.h"

namespace potemkin {

inline std::vector<MetricRegistry::Sample> SampleRows(
    const MetricRegistry& registry) {
  std::vector<MetricRegistry::Sample> rows;
  registry.VisitSamples(
      [&rows](const std::string& name, double value, const std::string& unit) {
        rows.push_back({name, value, unit});
      });
  return rows;
}

}  // namespace potemkin

#endif  // TESTS_OBS_SAMPLE_ROWS_H_
