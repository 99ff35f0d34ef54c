// Tiny command-line flag parser for the slim tools: --key=value and
// --key value forms, with typed getters and an automatic usage dump.
#ifndef SLIM_TOOLS_FLAGS_H_
#define SLIM_TOOLS_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace slim::tools {

/// Parsed command line: --flag=value / --flag value pairs plus positionals.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // boolean flag
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    auto v = ParseInt64(it->second);
    if (!v.ok()) Fail("flag --" + key + " expects an integer");
    return *v;
  }

  /// GetInt narrowed to T, failing on a value T cannot hold — so
  /// 4294967308 is not read as an int 12, nor -1 as an unsigned SIZE_MAX.
  template <typename T>
  T GetIntAs(const std::string& key, T def) const {
    const int64_t v = GetInt(key, static_cast<int64_t>(def));
    if (!std::in_range<T>(v)) {
      Fail("flag --" + key + " must be in [" +
           std::to_string(std::numeric_limits<T>::min()) + ", " +
           std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    return static_cast<T>(v);
  }

  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    auto v = ParseDouble(it->second);
    if (!v.ok()) Fail("flag --" + key + " expects a number");
    return *v;
  }

  bool GetBool(const std::string& key, bool def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  [[noreturn]] static void Fail(const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace slim::tools

#endif  // SLIM_TOOLS_FLAGS_H_
