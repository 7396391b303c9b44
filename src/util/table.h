// Aligned text tables and CSV emission for the benchmark harnesses.
//
// Every figure/table bench prints (a) a human-readable aligned table and
// (b) machine-readable CSV (prefixed lines) so results can be re-plotted.
#ifndef SRC_UTIL_TABLE_H_
#define SRC_UTIL_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace rtdvs {

class JsonValue;

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision. (Named, not an
  // AddRow overload: string literals convert to bool and then to double, so
  // an overload set would be ambiguous for brace-initialized string rows.)
  void AddNumericRow(const std::vector<double>& row, int precision = 4);

  // Renders with column alignment; numeric-looking cells right-align.
  void Print(std::ostream& out) const;

  // Emits "csv,<col1>,<col2>,..." lines (header first). The prefix keeps CSV
  // greppable out of mixed stdout.
  void PrintCsv(std::ostream& out, const std::string& prefix = "csv") const;

  // {"header": [...], "rows": [[...], ...]} with every cell a string —
  // formatting already happened at AddRow time, and re-parsing cells would
  // lose the bench's intended precision. Used by the bench --json emitters.
  JsonValue ToJson() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double compactly (trailing zeros trimmed).
std::string FormatDouble(double value, int precision = 4);

}  // namespace rtdvs

#endif  // SRC_UTIL_TABLE_H_
