#include "supremm/summary_io.hpp"

#include <ostream>
#include <string>
#include <string_view>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/number_text.hpp"

namespace xdmodml::supremm {

namespace {

const char* label_source_name(LabelSource source) {
  switch (source) {
    case LabelSource::kIdentified:
      return "identified";
    case LabelSource::kUncategorized:
      return "uncategorized";
    case LabelSource::kNotAvailable:
      return "na";
  }
  return "?";
}

LabelSource parse_label_source(std::string_view text) {
  if (text == "identified") return LabelSource::kIdentified;
  if (text == "uncategorized") return LabelSource::kUncategorized;
  if (text == "na") return LabelSource::kNotAvailable;
  throw InvalidArgument("unknown label source: " + std::string(text));
}

double parse_double(std::string_view text) {
  const auto v = numtext::parse_double(text);
  XDMODML_CHECK(v.has_value(), "bad numeric field: " + std::string(text));
  return *v;
}

}  // namespace

std::vector<std::string> jobs_csv_header() {
  std::vector<std::string> header{
      "job_id",     "executable_path", "application",
      "category",   "label_source",    "nodes",
      "cores_per_node", "wall_seconds", "start_epoch_seconds",
      "exit_code",
      "application_succeeded"};
  for (const auto& info : metric_catalog()) {
    header.push_back(info.name);
  }
  for (const auto& info : metric_catalog()) {
    if (info.has_cov) header.push_back(std::string(info.name) + "_COV");
  }
  return header;
}

void write_jobs_csv(std::ostream& out, std::span<const JobSummary> jobs) {
  CsvWriter writer(out);
  writer.write_row(jobs_csv_header());
  for (const auto& job : jobs) {
    writer.field(job.job_id);
    writer.field(job.executable_path);
    writer.field(job.application);
    writer.field(job.category);
    writer.field(label_source_name(job.label_source));
    writer.field(job.nodes);
    writer.field(job.cores_per_node);
    writer.field(job.wall_seconds);
    writer.field(job.start_epoch_seconds);
    writer.field(job.exit_code);
    writer.field(job.application_succeeded ? "1" : "0");
    for (const auto& info : metric_catalog()) {
      writer.field(job.mean_of(info.id));
    }
    for (const auto& info : metric_catalog()) {
      if (info.has_cov) writer.field(job.cov_of(info.id));
    }
    writer.end_row();
  }
}

std::vector<JobSummary> read_jobs_csv(std::istream& in) {
  CsvReader reader(in);
  XDMODML_CHECK(reader.header() == jobs_csv_header(),
                "job CSV header does not match the interchange format");
  std::vector<JobSummary> jobs;
  std::vector<std::string_view> row;
  while (reader.next_row(row)) {
    // Any per-field failure (bad numeric, unknown label source, or the
    // injected `summary_io.read.row` fault) is rethrown with the row
    // position and job id, so a million-row ingest names the one bad
    // record instead of surfacing a bare "bad numeric field".
    try {
      XDMODML_FAILPOINT("summary_io.read.row");
      JobSummary job;
      std::size_t c = 0;
      job.job_id = static_cast<std::uint64_t>(parse_double(row[c++]));
      job.executable_path = row[c++];
      job.application = row[c++];
      job.category = row[c++];
      job.label_source = parse_label_source(row[c++]);
      job.nodes = static_cast<std::uint32_t>(parse_double(row[c++]));
      job.cores_per_node = static_cast<std::uint32_t>(parse_double(row[c++]));
      job.wall_seconds = parse_double(row[c++]);
      job.start_epoch_seconds = parse_double(row[c++]);
      job.exit_code = static_cast<int>(parse_double(row[c++]));
      job.application_succeeded = row[c++] == "1";
      for (const auto& info : metric_catalog()) {
        job.set_mean(info.id, parse_double(row[c++]));
      }
      for (const auto& info : metric_catalog()) {
        if (info.has_cov) job.set_cov(info.id, parse_double(row[c++]));
      }
      jobs.push_back(std::move(job));
    } catch (const std::exception& e) {
      throw InvalidArgument("job CSV data row " +
                            std::to_string(jobs.size() + 1) +
                            " (job_id field '" + std::string(row[0]) +
                            "'): " + e.what());
    }
  }
  return jobs;
}

}  // namespace xdmodml::supremm
