#include "src/harness/flags.h"

#include <cstdlib>

namespace nomad {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

std::string Flags::GetString(const std::string& key, const std::string& def) const {
  used_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

uint64_t Flags::GetUint(const std::string& key, uint64_t def) const {
  used_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 0);
}

double Flags::GetDouble(const std::string& key, double def) const {
  used_[key] = true;
  auto it = values_.find(key);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& key, bool def) const {
  used_[key] = true;
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Flags::UnusedKeys() const {
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    if (used_.find(key) == used_.end()) {
      unused.push_back("--" + key);
    }
  }
  unused.insert(unused.end(), positional_.begin(), positional_.end());
  return unused;
}

}  // namespace nomad
