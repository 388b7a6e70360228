// bench::Report: gate evaluation at the edges the validator re-checks, and
// numbers that survive the trip through the file bit for bit.
#include "bench/report.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cpe::bench {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The number written after `"key": ` in `doc`.
double number_after(const std::string& doc, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const auto at = doc.find(tag);
  EXPECT_NE(at, std::string::npos) << key;
  const char* first = doc.data() + at + tag.size();
  double v = 0;
  const auto r = std::from_chars(first, doc.data() + doc.size(), v);
  EXPECT_EQ(r.ec, std::errc()) << key;
  return v;
}

TEST(Report, NonFiniteGateSideFails) {
  Report rep("b", "full");
  EXPECT_FALSE(rep.gate("nan_value", kNan, "<=", 1.0));
  EXPECT_FALSE(rep.gate("nan_value_ne", kNan, ">", 1.0));
  EXPECT_FALSE(rep.gate("inf_value", kInf, ">", 1.0));
  EXPECT_FALSE(rep.gate("inf_limit", 1.0, "<", kInf));
  EXPECT_FALSE(rep.gate("nan_both", kNan, "==", kNan));
  EXPECT_FALSE(rep.pass());
}

TEST(Report, EachComparisonHoldsExactlyAtItsBoundary) {
  const double l = 0.45;
  const double below = std::nextafter(l, 0.0);
  const double above = std::nextafter(l, 1.0);
  Report rep("b", "full");
  EXPECT_TRUE(rep.gate("lt_below", below, "<", l));
  EXPECT_FALSE(rep.gate("lt_at", l, "<", l));
  EXPECT_TRUE(rep.gate("le_at", l, "<=", l));
  EXPECT_FALSE(rep.gate("le_above", above, "<=", l));
  EXPECT_TRUE(rep.gate("gt_above", above, ">", l));
  EXPECT_FALSE(rep.gate("gt_at", l, ">", l));
  EXPECT_TRUE(rep.gate("ge_at", l, ">=", l));
  EXPECT_FALSE(rep.gate("ge_below", below, ">=", l));
  EXPECT_TRUE(rep.gate("eq_at", l, "==", l));
  EXPECT_FALSE(rep.gate("eq_above", above, "==", l));
  EXPECT_FALSE(rep.gate("unknown_cmp", l, "!=", above));
}

TEST(Report, WrittenDoublesReadBackBitIdentical) {
  const double values[] = {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(), -0.0,
                           16384.0};
  Report rep("b", "full");
  std::vector<Field> row;
  for (std::size_t i = 0; i < std::size(values); ++i)
    row.emplace_back("v" + std::to_string(i), values[i]);
  rep.row("values", row);
  rep.gate("g", values[0], "<", values[1]);
  const std::string doc = rep.json();
  for (std::size_t i = 0; i < std::size(values); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  number_after(doc, "v" + std::to_string(i))),
              std::bit_cast<std::uint64_t>(values[i]))
        << "v" << i;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(number_after(doc, "value")),
            std::bit_cast<std::uint64_t>(values[0]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(number_after(doc, "limit")),
            std::bit_cast<std::uint64_t>(values[1]));
}

TEST(Report, NonFiniteNumbersAreWrittenAsNull) {
  Report rep("b", "full");
  rep.row("rows", {{"nan", kNan}, {"inf", -kInf}, {"ok", 2}, {"s", "x"},
                   {"flag", true}});
  rep.gate("g", kNan, "<", 1);
  const std::string doc = rep.json();
  EXPECT_NE(doc.find("{\"nan\": null, \"inf\": null, \"ok\": 2, "
                     "\"s\": \"x\", \"flag\": true}"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"value\": null, \"cmp\": \"<\", \"limit\": 1, "
                     "\"pass\": false"),
            std::string::npos)
      << doc;
}

TEST(Report, PassIsTheAndOfItsGates) {
  Report rep("b", "full");
  EXPECT_FALSE(rep.pass());  // no gates: the validator rejects it too
  rep.gate("a", 1, "==", 1);
  EXPECT_TRUE(rep.pass());
  rep.gate("b", 2, "<", 3);
  EXPECT_TRUE(rep.pass());
  rep.gate("c", 3, "<", 2);
  EXPECT_FALSE(rep.pass());
  rep.gate("d", 0, ">=", 0);
  EXPECT_FALSE(rep.pass());
}

}  // namespace
}  // namespace cpe::bench
