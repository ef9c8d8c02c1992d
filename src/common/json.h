// JSON text helpers shared by the repo's hand-rolled JSON writers (bench
// trajectories, obs metrics, attack witnesses, acs-bench-diff verdicts).
#pragma once

#include <string>
#include <string_view>

namespace acs {

/// `s` escaped for use between the quotes of a JSON string: quote and
/// backslash are backslash-escaped, \n \r \t use their short forms and
/// every other control character is written as \u00XX.
[[nodiscard]] std::string json_escape(std::string_view s);

/// printf "%.17g": round-trips every double exactly and, unlike streams,
/// does not depend on the locale.
[[nodiscard]] std::string format_double(double v);

}  // namespace acs
