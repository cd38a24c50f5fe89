#pragma once
// Error handling primitives shared by all msoc libraries.
//
// The libraries throw exceptions derived from msoc::Error for all
// recoverable failures (bad input files, infeasible constraints, domain
// violations).  Internal invariant violations use check_invariant(), which
// throws LogicError carrying the source location.

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace msoc {

/// Base class for all errors thrown by the msoc libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed or inconsistent input (e.g. a bad .soc file).
class ParseError : public Error {
 public:
  ParseError(std::string_view file, int line, const std::string& message);

  /// Name of the input (file path or buffer label) that failed to parse.
  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  /// 1-based line number of the offending token, 0 when unknown.  A
  /// module whose data fails validation once complete names the line
  /// of its own header.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  std::string file_;
  int line_ = 0;
};

/// A request that cannot be satisfied (e.g. TAM width of zero, or a
/// sharing partition that violates the sharing policy).
class InfeasibleError : public Error {
 public:
  using Error::Error;
};

/// Violated internal invariant; indicates a bug in this library.
class LogicError : public Error {
 public:
  using Error::Error;
};

/// Throws InfeasibleError with `message` when `condition` is false.
void require(bool condition, const std::string& message);

/// Throws LogicError annotated with the call site when `condition` is false.
void check_invariant(
    bool condition, const std::string& message,
    std::source_location where = std::source_location::current());

/// Out-of-line throw paths of the `const char*` overloads below.
[[noreturn]] void throw_infeasible(std::string_view message);
[[noreturn]] void throw_invariant(std::string_view message,
                                  std::source_location where);

/// Literal-message overloads: a passing check costs one branch and never
/// builds a std::string (a literal longer than the small-string buffer
/// would otherwise heap-allocate on every call, even when the condition
/// holds).  They throw exactly what the std::string overloads throw.
inline void require(bool condition, const char* message) {
  if (!condition) throw_infeasible(message);
}

inline void check_invariant(
    bool condition, const char* message,
    std::source_location where = std::source_location::current()) {
  if (!condition) throw_invariant(message, where);
}

}  // namespace msoc
