// Round-trip tests for the job-summary CSV interchange format.
#include "supremm/summary_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::supremm {
namespace {

TEST(SummaryIo, HeaderShape) {
  const auto header = jobs_csv_header();
  // 11 accounting fields + 26 means + 22 COVs.
  EXPECT_EQ(header.size(), 59u);
  EXPECT_EQ(header.front(), "job_id");
  EXPECT_EQ(header[11], "CPU_USER");
  EXPECT_EQ(header.back(), "LOCAL_DISK_WRITE_IOS_COV");
}

TEST(SummaryIo, RoundTripPreservesEverything) {
  auto gen = workload::WorkloadGenerator::standard({}, 77);
  auto jobs = workload::summaries_of(gen.generate_native(25));
  auto uncat = workload::summaries_of(gen.generate_uncategorized(5));
  auto na = workload::summaries_of(gen.generate_na(5));
  jobs.insert(jobs.end(), uncat.begin(), uncat.end());
  jobs.insert(jobs.end(), na.begin(), na.end());

  std::ostringstream out;
  write_jobs_csv(out, jobs);
  std::istringstream in(out.str());
  const auto loaded = read_jobs_csv(in);

  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& a = jobs[i];
    const auto& b = loaded[i];
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.executable_path, b.executable_path);
    EXPECT_EQ(a.application, b.application);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.label_source, b.label_source);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.cores_per_node, b.cores_per_node);
    EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_DOUBLE_EQ(a.start_epoch_seconds, b.start_epoch_seconds);
    EXPECT_EQ(a.exit_code, b.exit_code);
    EXPECT_EQ(a.application_succeeded, b.application_succeeded);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      EXPECT_DOUBLE_EQ(a.means[m], b.means[m]) << "metric " << m;
      if (metric_catalog()[m].has_cov) {
        EXPECT_DOUBLE_EQ(a.covs[m], b.covs[m]) << "cov " << m;
      }
    }
  }
}

TEST(SummaryIo, RejectsWrongHeader) {
  std::istringstream in("foo,bar\n1,2\n");
  EXPECT_THROW(read_jobs_csv(in), InvalidArgument);
}

TEST(SummaryIo, RejectsBadNumericField) {
  auto gen = workload::WorkloadGenerator::standard({}, 78);
  const auto jobs = workload::summaries_of(gen.generate_native(1));
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  auto text = out.str();
  // Corrupt the wall_seconds field of the data row.
  const auto row_start = text.find('\n') + 1;
  auto pos = row_start;
  for (int commas = 0; commas < 7; ++pos) {
    if (text[pos] == ',') ++commas;
  }
  text.insert(pos, "x");
  std::istringstream in(text);
  EXPECT_THROW(read_jobs_csv(in), std::exception);
}

/// The data row of a one-job CSV with its wall_seconds field replaced.
std::string with_wall_seconds(const std::string& value) {
  auto gen = workload::WorkloadGenerator::standard({}, 79);
  const auto jobs = workload::summaries_of(gen.generate_native(1));
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  auto text = out.str();
  auto begin = text.find('\n') + 1;
  for (int commas = 0; commas < 7; ++begin) {
    if (text[begin] == ',') ++commas;
  }
  const auto end = text.find(',', begin);
  return text.replace(begin, end - begin, value);
}

// Numeric fields go through the shared number codec: whole tokens,
// finite values only, each rejection an InvalidArgument naming the row.
TEST(SummaryIo, RejectsNonFiniteAndPartialNumericFields) {
  {
    std::istringstream in(with_wall_seconds("3600.5"));
    EXPECT_EQ(read_jobs_csv(in).front().wall_seconds, 3600.5);
  }
  for (const char* bad :
       {"inf", "-inf", "nan", "1e400", "0.5x", "", "+1", " 1", "0x10"}) {
    std::istringstream in(with_wall_seconds(bad));
    try {
      (void)read_jobs_csv(in);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("data row 1"), std::string::npos)
          << e.what();
    }
  }
}

// Shortest round-trip text: every double reads back bit for bit, and
// text written at 17 significant digits reads back to the same doubles.
TEST(SummaryIo, DoublesRoundTripBitForBit) {
  auto gen = workload::WorkloadGenerator::standard({}, 80);
  auto jobs = workload::summaries_of(gen.generate_native(20));
  jobs.front().wall_seconds = 0.1 + 0.2;
  jobs.front().set_mean(MetricId::kCpuUser, 1e-300);
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  std::istringstream in(out.str());
  const auto loaded = read_jobs_csv(in);
  ASSERT_EQ(loaded.size(), jobs.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(bits(loaded[i].wall_seconds), bits(jobs[i].wall_seconds));
    EXPECT_EQ(bits(loaded[i].start_epoch_seconds),
              bits(jobs[i].start_epoch_seconds));
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      EXPECT_EQ(bits(loaded[i].means[m]), bits(jobs[i].means[m]));
      if (metric_catalog()[m].has_cov) {
        EXPECT_EQ(bits(loaded[i].covs[m]), bits(jobs[i].covs[m]));
      }
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", 0.1 + 0.2);
  std::istringstream old(with_wall_seconds(buf));
  EXPECT_EQ(bits(read_jobs_csv(old).front().wall_seconds), bits(0.1 + 0.2));
}

TEST(SummaryIo, EmptyDocumentRoundTrips) {
  std::ostringstream out;
  write_jobs_csv(out, {});
  std::istringstream in(out.str());
  EXPECT_TRUE(read_jobs_csv(in).empty());
}

}  // namespace
}  // namespace xdmodml::supremm
