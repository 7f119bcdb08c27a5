#include "src/base/flags.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace potemkin {

Flags Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    if (StartsWith(arg, "no-")) {
      flags.values_[arg.substr(3)] = "false";
      continue;
    }
    // `--name value` when the next token is not itself a flag; else boolean true.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[arg] = argv[i + 1];
      ++i;
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

const std::string* Flags::Find(const std::string& name) const {
  // Parse stores `--no-name` as name=false, so a lookup of "no-name" could
  // never see the flag the user typed.
  PK_CHECK(!StartsWith(name, "no-"))
      << "look up --no-" << name.substr(3) << " as GetBool(\"" << name.substr(3)
      << "\", true)";
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const { return Find(name) != nullptr; }

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) {
    names.push_back(name);  // std::map iteration is already sorted
  }
  return names;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : *v;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) {
    return default_value;
  }
  return ParseInt64(*v).value_or(default_value);
}

uint64_t Flags::GetUint(const std::string& name, uint64_t default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) {
    return default_value;
  }
  return ParseUint64(*v).value_or(default_value);
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) {
    return default_value;
  }
  return ParseDouble(*v).value_or(default_value);
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  const std::string* found = Find(name);
  if (found == nullptr) {
    return default_value;
  }
  const std::string& v = *found;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  return default_value;
}

}  // namespace potemkin
