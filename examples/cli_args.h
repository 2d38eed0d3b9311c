#pragma once

// Strict number parsing for the command-line examples (sweep, tripscope,
// traceforge, vifi_cli). A flag's value must be one whole number inside the
// flag's range: "x", "5s", "" or a "-1" count is rejected, where atoi/atof/
// stod would read up to the first bad character and carry on. The caller
// catches BadNumber, prints its usage and exits 2.

#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace vifi::cli {

/// A malformed or out-of-range flag value; what() names the flag.
class BadNumber : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Parses all of \p text as a T in [lo, hi] (integers in decimal, doubles
/// in plain or exponent form); anything else throws BadNumber.
template <class T>
T parse_number(const std::string& flag, const std::string& text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  // The negated test also rejects a NaN double.
  if (ec != std::errc{} || stop != end || !(value >= lo && value <= hi)) {
    std::ostringstream msg;
    msg << flag << ": '" << text << "' is not a number in [" << lo << ", "
        << hi << "]";
    throw BadNumber(msg.str());
  }
  return value;
}

}  // namespace vifi::cli
