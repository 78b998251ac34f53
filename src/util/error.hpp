#pragma once
// Error-handling helpers shared by every BISRAMGEN module.
//
// The library reports contract violations and invalid user input by
// throwing exceptions (per the C++ Core Guidelines, E.2/E.3): callers get
// a typed error they can catch at the tool boundary, and internal code
// never has to thread status codes through deep call stacks.

#include <stdexcept>
#include <string>
#include <string_view>

namespace bisram {

/// Base class for all errors thrown by the BISRAMGEN library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Invalid user-supplied specification (bad RamSpec, bad march string, ...).
class SpecError : public Error {
 public:
  explicit SpecError(const std::string& what) : Error(what) {}
};

/// Internal invariant violation; indicates a bug in the library itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

// The checks below run in every build, often per element of a hot loop,
// so a passing check must not allocate: the message is taken as a view
// and only copied into a string when the check fails. A message built
// by concatenation is still built eagerly by the caller; write such a
// check as `if (!cond) throw ...` instead.

/// Throws SpecError with `msg` when `cond` is false. Use to validate input.
inline void require(bool cond, std::string_view msg) {
  if (!cond) throw SpecError(std::string(msg));
}

/// Throws InternalError with `msg` when `cond` is false. Use for invariants.
inline void ensure(bool cond, std::string_view msg) {
  if (!cond) throw InternalError(std::string(msg));
}

}  // namespace bisram
