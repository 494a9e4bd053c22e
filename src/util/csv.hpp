// Minimal CSV read/write support.
//
// Benches and examples dump their series as CSV so that the paper's figures
// can be re-plotted externally; the reader supports round-tripping those
// files and loading user-provided job summaries.  Fields containing commas,
// quotes or newlines are quoted per RFC 4180, and the parser reads quoted
// embedded newlines back (a record may span physical lines), so everything
// the writer emits round-trips.  Doubles are written shortest round-trip
// (util/number_text.hpp), so parsing a field back gives the same bits.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace xdmodml {

/// Parsed CSV document: a header row plus data rows of strings.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws InvalidArgument when absent.
  std::size_t column_index(const std::string& name) const;
};

/// Streaming CSV writer: whole rows, or one field at a time up to
/// `end_row`, formatted straight into the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);
  void write_row(const std::vector<double>& fields);

  /// Appends one field to the current row (quoted only when needed).
  void field(std::string_view text);
  void field(double value);
  template <std::integral T>
  void field(T value) {
    char buf[24];
    write_field(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }
  void end_row();

 private:
  /// Writes [first, last) as the next field; the text needs no quoting.
  void write_field(const char* first, const char* last);

  std::ostream& out_;
  bool row_open_ = false;
};

/// Quotes a single field per RFC 4180 if needed.
std::string csv_escape(const std::string& field);

/// Streaming CSV reader: the header on construction, then one data row
/// per `next_row` as views into a reused buffer, so reading allocates
/// nothing per field.  Quoted fields may contain embedded newlines;
/// rows whose width does not match the header are rejected with the
/// offending row number *and* the physical line the record starts on
/// (the two diverge once any earlier field contained a quoted newline).
/// Failpoint sites, checked once per physical line: `csv.parse.read`
/// (injected I/O error, surfaced as ComputeError with the line) and
/// `csv.parse.truncate` (short read — the stream ends early; truncation
/// inside a record is caught by the unterminated-field check).
class CsvReader {
 public:
  explicit CsvReader(std::istream& in);

  /// The first record; empty when the input holds none.
  const std::vector<std::string>& header() const { return header_; }

  /// The next data row, valid until the next call; false at the end.
  bool next_row(std::vector<std::string_view>& fields);

 private:
  bool next_record(std::vector<std::string_view>& fields);

  std::istream& in_;
  std::vector<std::string> header_;
  std::string line_;
  std::string record_;
  std::size_t line_no_ = 0;            // physical lines consumed
  std::size_t record_start_line_ = 0;  // where the current record began
  std::size_t rows_ = 0;
  bool ended_ = false;
};

/// Parses a full CSV document (first row is the header) with CsvReader.
CsvDocument parse_csv(std::istream& in);

/// Parses one logical CSV record into fields.  Newlines inside quoted
/// fields are kept verbatim (CsvReader assembles multi-line records
/// before splitting them).
std::vector<std::string> parse_csv_line(const std::string& line);

}  // namespace xdmodml
