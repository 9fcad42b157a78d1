// Minimal --key=value command-line flag parsing for tools and benches.
//
// Supports `--key=value` and bare `--key` (treated as "true"). No binary
// reads a positional argument; unread arguments of either kind are
// collected so callers can reject typos and strays.
#ifndef SRC_HARNESS_FLAGS_H_
#define SRC_HARNESS_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nomad {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key, const std::string& def = "") const;
  uint64_t GetUint(const std::string& key, uint64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def = false) const;

  // Arguments no Get* call read, as typed: `--key` for a flag (without
  // its value), then every positional argument. Call after all Get* calls.
  std::vector<std::string> UnusedKeys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

}  // namespace nomad

#endif  // SRC_HARNESS_FLAGS_H_
