// One bench report: the gates a bench passes or fails, each stated once,
// next to the rows it measured.  Every bench that writes JSON writes one
// file in one schema (DESIGN.md §9):
//
//   {"bench": "<name>", "mode": "full" | "smoke",
//    "gates": [{"name": "...", "value": X, "cmp": "<=", "limit": Y,
//               "pass": true}, ...],
//    "results": {"<table>": [{"<key>": number | string | bool, ...}, ...]}}
//
// The bench prints its PASS/FAIL lines and takes its exit code from the
// gates it records here, and `ci/check.sh bench` re-evaluates every gate
// from the file with one schema-generic validator.  Numbers are written in
// shortest round-trip form (std::to_chars), so the validator compares the
// exact doubles the bench compared; a non-finite number is written as null,
// which the validator rejects.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace cpe::bench {

/// `v` as JSON text in shortest round-trip form, or null when non-finite.
inline std::string exact_json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, r.ptr};
}

/// One field of a result row: a number, a string or a bool, kept as JSON.
struct Field {
  template <class T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  Field(std::string k, T v)
      : key(std::move(k)), json(exact_json(static_cast<double>(v))) {}
  Field(std::string k, bool v)
      : key(std::move(k)), json(v ? "true" : "false") {}
  Field(std::string k, const std::string& v)
      : key(std::move(k)), json('"' + obs::json_escape(v) + '"') {}
  Field(std::string k, const char* v) : Field(std::move(k), std::string(v)) {}

  std::string key;
  std::string json;
};

class Report {
 public:
  Report(std::string bench, std::string mode)
      : bench_(std::move(bench)), mode_(std::move(mode)) {}

  /// Record gate `name`: it passes when `value cmp limit` holds, with `cmp`
  /// one of "<", "<=", ">", ">=", "==", and both sides are finite.  A gate
  /// that fails prints one line.  Returns whether it passed.
  template <class V, class L>
    requires std::is_arithmetic_v<V> && std::is_arithmetic_v<L>
  bool gate(std::string name, V value, std::string_view cmp, L limit) {
    const auto v = static_cast<double>(value);
    const auto l = static_cast<double>(limit);
    const bool pass = std::isfinite(v) && std::isfinite(l) && holds(v, cmp, l);
    if (!pass)
      std::printf("  gate %s: %s %s %s FAIL\n", name.c_str(),
                  exact_json(v).c_str(), std::string(cmp).c_str(),
                  exact_json(l).c_str());
    gates_.push_back({std::move(name), v, std::string(cmp), l, pass});
    return pass;
  }

  /// Append one row to the results table `table`; tables keep the order in
  /// which their first row arrived.
  void row(std::string_view table, const std::vector<Field>& fields) {
    std::string json = "{";
    for (const Field& f : fields) {
      if (json.size() > 1) json += ", ";
      json += '"' + obs::json_escape(f.key) + "\": " + f.json;
    }
    json += '}';
    for (auto& [name, rows] : tables_)
      if (name == table) {
        rows.push_back(std::move(json));
        return;
      }
    tables_.push_back({std::string(table), {std::move(json)}});
  }

  /// True when at least one gate was recorded and every one passed (the
  /// validator rejects a report without gates).
  [[nodiscard]] bool pass() const noexcept {
    if (gates_.empty()) return false;
    for (const Gate& g : gates_)
      if (!g.pass) return false;
    return true;
  }

  /// The report as one JSON document.
  [[nodiscard]] std::string json() const {
    std::string out = "{\n  \"bench\": \"" + obs::json_escape(bench_) +
                      "\",\n  \"mode\": \"" + obs::json_escape(mode_) +
                      "\",\n  \"gates\": [";
    const char* sep = "\n";
    for (const Gate& g : gates_) {
      out += sep;
      out += "    {\"name\": \"" + obs::json_escape(g.name) +
             "\", \"value\": " + exact_json(g.value) + ", \"cmp\": \"" +
             obs::json_escape(g.cmp) + "\", \"limit\": " +
             exact_json(g.limit) + ", \"pass\": " +
             (g.pass ? "true" : "false") + "}";
      sep = ",\n";
    }
    out += "\n  ],\n  \"results\": {";
    sep = "\n";
    for (const auto& [name, rows] : tables_) {
      out += sep;
      out += "    \"" + obs::json_escape(name) + "\": [";
      const char* row_sep = "\n";
      for (const std::string& r : rows) {
        out += row_sep;
        out += "      " + r;
        row_sep = ",\n";
      }
      out += "\n    ]";
      sep = ",\n";
    }
    out += tables_.empty() ? "}\n}\n" : "\n  }\n}\n";
    return out;
  }

  /// Write the report to `path` (truncating) and say so on stdout.
  void write(const std::string& path) const {
    std::ofstream(path, std::ios::trunc) << json();
    std::printf("  results: wrote %s\n", path.c_str());
  }

 private:
  struct Gate {
    std::string name;
    double value;
    std::string cmp;
    double limit;
    bool pass;
  };

  static bool holds(double v, std::string_view cmp, double l) {
    if (cmp == "<") return v < l;
    if (cmp == "<=") return v <= l;
    if (cmp == ">") return v > l;
    if (cmp == ">=") return v >= l;
    if (cmp == "==") return v == l;
    return false;
  }

  std::string bench_;
  std::string mode_;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, std::vector<std::string>>> tables_;
};

}  // namespace cpe::bench
