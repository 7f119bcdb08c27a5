// Tiny command-line flag parser for the examples and bench harnesses.
//
// Supports `--name=value`, `--name value`, and boolean `--name` / `--no-name`.
// Unrecognized arguments are collected as positionals so google-benchmark flags can
// pass through untouched.
#ifndef SRC_BASE_FLAGS_H_
#define SRC_BASE_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace potemkin {

class Flags {
 public:
  // Parses argv; never exits. `--help` text is the caller's job via `Describe`.
  static Flags Parse(int argc, char** argv);

  // Every lookup checks that `name` does not start with "no-": `--no-name`
  // parses as name=false, so read it as GetBool("name", true).
  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name, const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  uint64_t GetUint(const std::string& name, uint64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Every flag name that was present on the command line, sorted. Lets tools
  // reject unknown flags instead of silently ignoring typos.
  std::vector<std::string> Names() const;

 private:
  // The stored value of `name`, or null when absent.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace potemkin

#endif  // SRC_BASE_FLAGS_H_
