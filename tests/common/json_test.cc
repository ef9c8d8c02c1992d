#include "common/json.h"

#include <gtest/gtest.h>

#include <string>

namespace acs {
namespace {

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json_escape("plain name.with-dots"), "plain name.with-dots");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("l1\nl2\r\tx"), "l1\\nl2\\r\\tx");
  EXPECT_EQ(json_escape(std::string("nul\0bell\a\x1f", 10)),
            "nul\\u0000bell\\u0007\\u001f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes
}

TEST(FormatDouble, RoundTripsExactly) {
  for (const double v : {0.0, -1.5, 1.0 / 3.0, 1e-300, 2.2e8}) {
    EXPECT_EQ(std::stod(format_double(v)), v) << format_double(v);
  }
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(12), "12");
}

}  // namespace
}  // namespace acs
