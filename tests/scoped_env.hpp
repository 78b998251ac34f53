#pragma once
// ScopedEnv sets or unsets one environment variable for a scope and puts
// back the value it had on exit. A test that sweeps an operator knob
// such as BISRAM_THREADS then leaves the knob as the operator set it for
// the tests after it in the same process (the sanitizer legs run whole
// suites under BISRAM_THREADS=1, 2 and 8).

#include <cstdlib>
#include <optional>
#include <string>

namespace bisram {

class ScopedEnv {
 public:
  /// Sets `name` to `value`, or unsets it when `value` is null.
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  /// Sets the variable to `value`, or unsets it when null; true on
  /// success. The value restored on exit stays the one saved at entry.
  bool set(const char* value) const {
    return (value ? ::setenv(name_.c_str(), value, 1)
                  : ::unsetenv(name_.c_str())) == 0;
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace bisram
