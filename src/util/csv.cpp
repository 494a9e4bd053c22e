#include "util/csv.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/number_text.hpp"

namespace xdmodml {

namespace {
/// A field holding any of these is quoted (RFC 4180).
constexpr std::string_view kNeedsQuotes = ",\"\n\r";
}  // namespace

std::size_t CsvDocument::column_index(const std::string& name) const {
  const auto it = std::find(header.begin(), header.end(), name);
  XDMODML_CHECK(it != header.end(), "CSV column not found: " + name);
  return static_cast<std::size_t>(it - header.begin());
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(kNeedsQuotes) != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (const auto& f : fields) field(f);
  end_row();
}

void CsvWriter::write_row(const std::vector<double>& fields) {
  for (const double f : fields) field(f);
  end_row();
}

void CsvWriter::field(std::string_view text) {
  if (text.find_first_of(kNeedsQuotes) == std::string_view::npos) {
    write_field(text.data(), text.data() + text.size());
  } else {
    const std::string quoted = csv_escape(std::string(text));
    write_field(quoted.data(), quoted.data() + quoted.size());
  }
}

void CsvWriter::field(double value) {
  // Shortest round-trip text never needs quoting.
  char buf[numtext::kMaxChars];
  write_field(buf, numtext::write_double(buf, value));
}

void CsvWriter::write_field(const char* first, const char* last) {
  if (row_open_) out_.put(',');
  row_open_ = true;
  out_.write(first, last - first);
}

void CsvWriter::end_row() {
  out_.put('\n');
  row_open_ = false;
}

namespace {

/// Splits one logical record into fields, unquoting in place (the
/// unquoted text is never longer than the raw text), so the views point
/// into `record`.
void split_record(std::string& record,
                  std::vector<std::string_view>& fields) {
  fields.clear();
  char* const text = record.data();
  const std::size_t n = record.size();
  std::size_t out = 0;    // write position
  std::size_t start = 0;  // where the current field's text begins
  bool in_quotes = false;
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          text[out++] = '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        text[out++] = c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.emplace_back(text + start, out - start);
      start = out;
    } else if (c != '\r') {  // tolerate CRLF
      text[out++] = c;
    }
  }
  fields.emplace_back(text + start, out - start);
}

}  // namespace

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::string record = line;
  std::vector<std::string_view> views;
  split_record(record, views);
  return {views.begin(), views.end()};
}

CsvReader::CsvReader(std::istream& in) : in_(in) {
  std::vector<std::string_view> fields;
  if (next_record(fields)) header_.assign(fields.begin(), fields.end());
}

bool CsvReader::next_row(std::vector<std::string_view>& fields) {
  if (!next_record(fields)) return false;
  ++rows_;
  XDMODML_CHECK(fields.size() == header_.size(),
                "CSV data row " + std::to_string(rows_) + " (line " +
                    std::to_string(record_start_line_) + ") has " +
                    std::to_string(fields.size()) +
                    " fields; the header has " +
                    std::to_string(header_.size()));
  return true;
}

bool CsvReader::next_record(std::vector<std::string_view>& fields) {
  bool in_record = false;
  std::size_t quotes = 0;
  while (!ended_ && std::getline(in_, line_)) {
    ++line_no_;
    // Fault sites for the ingest pipeline: `csv.parse.read` models an
    // I/O error mid-file (surfaced with the exact position), while
    // `csv.parse.truncate` models a short read — the stream simply ends
    // here, and the unterminated-record check below decides whether
    // that is detectable.
    try {
      XDMODML_FAILPOINT("csv.parse.read");
    } catch (const fp::FailpointError& e) {
      throw ComputeError("CSV read failed at line " +
                         std::to_string(line_no_) + ": " + e.what());
    }
    if (fp::triggered("csv.parse.truncate")) break;
    if (!in_record) {
      if (line_.empty()) continue;
      record_.assign(line_);
      in_record = true;
      record_start_line_ = line_no_;
    } else {
      // Still inside a quoted field: the writer emitted an embedded
      // newline, which getline consumed — restore it and keep reading.
      record_ += '\n';
      record_ += line_;
    }
    // An odd number of quote characters means a quoted field is still
    // open across the line break (RFC 4180 escapes quotes by doubling
    // them, which keeps the per-record count even).
    quotes += static_cast<std::size_t>(
        std::count(line_.begin(), line_.end(), '"'));
    if (quotes % 2 != 0) continue;
    split_record(record_, fields);
    return true;
  }
  ended_ = true;
  XDMODML_CHECK(!in_record,
                "CSV input ends inside an unterminated quoted field "
                "starting at line " +
                    std::to_string(record_start_line_));
  return false;
}

CsvDocument parse_csv(std::istream& in) {
  CsvReader reader(in);
  CsvDocument doc;
  doc.header = reader.header();
  std::vector<std::string_view> fields;
  while (reader.next_row(fields)) {
    doc.rows.emplace_back(fields.begin(), fields.end());
  }
  return doc;
}

}  // namespace xdmodml
