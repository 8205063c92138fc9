// Tests for the CSV result exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/plan_compositor.hpp"
#include "mp/fault.hpp"
#include "pvr/csv.hpp"
#include "test_helpers.hpp"

namespace pvr = slspvr::pvr;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;

TEST(Csv, WritesHeaderAndRows) {
  const auto subimages = make_subimages(4, 24, 24, 0.3, 9);
  const auto order = make_default_order(2);
  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();
  const auto result = pvr::run_compositing(bsbrc, subimages, order);

  pvr::CsvWriter csv;
  csv.add("synthetic", 24, 4, result);
  csv.add("synthetic", 24, 4, result);
  EXPECT_EQ(csv.rows(), 2u);

  const std::string path = std::filesystem::temp_directory_path() / "slspvr_test.csv";
  csv.write(path);

  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "dataset,image,ranks,method,comp_ms,comm_ms,total_ms,timeline_ms,"
            "wait_ms,m_max_bytes,wall_ms,naks,retransmits,healed_bytes,respawns,"
            "stale_rejects");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Each row has 16 comma-separated fields and names the method.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 15);
    EXPECT_NE(line.find("BSBRC"), std::string::npos);
    // Plain-run rows carry zeroed RetryStats + respawn columns.
    EXPECT_NE(line.rfind(",0,0,0,0,0"), std::string::npos);
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(Csv, FaultTolerantRowCarriesRetryStats) {
  const auto subimages = make_subimages(4, 24, 24, 0.3, 10);
  const auto order = make_default_order(2);
  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();

  slspvr::mp::FaultPlan plan;
  plan.drops.push_back({/*source=*/1, /*dest=*/slspvr::mp::kAnyRankRule,
                        /*tag=*/slspvr::mp::kAnyTagRule, /*stage=*/slspvr::mp::kAnyStageRule,
                        /*max_count=*/1 << 20});
  plan.retry.max_attempts = 6;
  const auto ft = pvr::run_compositing_ft(bsbrc, subimages, order, plan);
  ASSERT_FALSE(ft.report.faulted);
  ASSERT_GT(ft.report.retry_stats.retransmits, 0u);

  pvr::CsvWriter csv;
  csv.add("synthetic", 24, 4, ft);
  const std::string path = std::filesystem::temp_directory_path() / "slspvr_test_ft.csv";
  csv.write(path);

  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  std::ostringstream expected_tail;
  expected_tail << ',' << ft.report.retry_stats.naks << ','
                << ft.report.retry_stats.retransmits << ','
                << ft.report.retry_stats.healed_bytes;
  EXPECT_NE(row.find(expected_tail.str()), std::string::npos) << row;
  std::remove(path.c_str());
}

TEST(Csv, WriteToBadPathThrows) {
  pvr::CsvWriter csv;
  EXPECT_THROW(csv.write("/nonexistent-dir-xyz/out.csv"), std::runtime_error);
}

// RFC 4180 escaping: plain fields pass through verbatim; fields containing
// a comma, quote or line break are quoted, with embedded quotes doubled.
TEST(Csv, FieldEscapingFollowsRfc4180) {
  EXPECT_EQ(pvr::csv_field("engine_low"), "engine_low");
  EXPECT_EQ(pvr::csv_field(""), "");
  EXPECT_EQ(pvr::csv_field("head, contrast"), "\"head, contrast\"");
  EXPECT_EQ(pvr::csv_field("the \"best\" scan"), "\"the \"\"best\"\" scan\"");
  EXPECT_EQ(pvr::csv_field("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(pvr::csv_field("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(pvr::csv_field("a,\"b\""), "\"a,\"\"b\"\"\"");
}

// A dataset name containing a comma must not shift every later column: the
// row still parses to exactly 16 RFC 4180 fields and the name round-trips.
TEST(Csv, CommaInDatasetNameDoesNotSplitColumns) {
  const auto subimages = make_subimages(4, 24, 24, 0.3, 11);
  const auto order = make_default_order(2);
  const slspvr::core::Compositor& bsbrc = slspvr::core::bsbrc();
  const auto result = pvr::run_compositing(bsbrc, subimages, order);

  pvr::CsvWriter csv;
  csv.add("head, contrast \"phase 2\"", 24, 4, result);
  const std::string path =
      std::filesystem::temp_directory_path() / "slspvr_test_quoted.csv";
  csv.write(path);

  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  std::remove(path.c_str());

  // Minimal RFC 4180 parse of one physical line (no embedded newlines here).
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted) {
      if (c == '"' && i + 1 < row.size() && row[i + 1] == '"') {
        field.push_back('"');
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(field);

  ASSERT_EQ(fields.size(), 16u) << row;
  EXPECT_EQ(fields[0], "head, contrast \"phase 2\"");
  EXPECT_EQ(fields[1], "24");
  EXPECT_EQ(fields[2], "4");
  EXPECT_EQ(fields[3], "BSBRC");
}
