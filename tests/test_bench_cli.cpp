// Coverage for the benchmark binaries' shared command-line parsing: the
// strict numeric helpers (tools/cli_parse.hpp) and the pure (throwing) argv
// parser that bench_common.hpp builds the exit-on-error wrapper from.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace bench = slspvr::bench;
namespace tools = slspvr::tools;

namespace {

/// Build a mutable argv the parser can walk (argv[0] is the program name).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("bench"));
    for (auto& s : storage_) pointers_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

bench::Options parse(std::vector<std::string> args) {
  Argv argv(std::move(args));
  return bench::parse_options_or_throw(argv.argc(), argv.argv());
}

TEST(BenchCli, DefaultsWhenNoArguments) {
  const bench::Options options = parse({});
  EXPECT_DOUBLE_EQ(options.scale, 0.5);
  EXPECT_EQ(options.image_size, 0);
  EXPECT_EQ(options.ranks, (std::vector<int>{2, 4, 8, 16, 32, 64}));
  EXPECT_TRUE(options.csv.empty());
}

TEST(BenchCli, ParsesEveryOption) {
  const bench::Options options =
      parse({"--scale", "0.75", "--image", "512", "--ranks", "2,8,32", "--csv", "out.csv"});
  EXPECT_DOUBLE_EQ(options.scale, 0.75);
  EXPECT_EQ(options.image_size, 512);
  EXPECT_EQ(options.ranks, (std::vector<int>{2, 8, 32}));
  EXPECT_EQ(options.csv, "out.csv");
}

TEST(BenchCli, FullIsScaleOne) {
  EXPECT_DOUBLE_EQ(parse({"--full"}).scale, 1.0);
}

TEST(BenchCli, RejectsNonNumericTokens) {
  EXPECT_THROW(parse({"--image", "abc"}), tools::ParseError);
  EXPECT_THROW(parse({"--image", "12x"}), tools::ParseError);  // trailing junk
  EXPECT_THROW(parse({"--image", ""}), tools::ParseError);
  EXPECT_THROW(parse({"--scale", "fast"}), tools::ParseError);
  EXPECT_THROW(parse({"--scale", "1.0garbage"}), tools::ParseError);
  EXPECT_THROW(parse({"--scale", "nan"}), tools::ParseError);
  EXPECT_THROW(parse({"--ranks", "2,four,8"}), tools::ParseError);
}

TEST(BenchCli, RejectsNonPositiveValues) {
  EXPECT_THROW(parse({"--image", "0"}), tools::ParseError);
  EXPECT_THROW(parse({"--image", "-64"}), tools::ParseError);
  EXPECT_THROW(parse({"--scale", "0"}), tools::ParseError);
  EXPECT_THROW(parse({"--scale", "-0.5"}), tools::ParseError);
  EXPECT_THROW(parse({"--ranks", "2,0,8"}), tools::ParseError);
  EXPECT_THROW(parse({"--ranks", "-2"}), tools::ParseError);
}

TEST(BenchCli, RejectsMalformedRankLists) {
  EXPECT_THROW(parse({"--ranks", ""}), tools::ParseError);
  EXPECT_THROW(parse({"--ranks", "2,,8"}), tools::ParseError);  // empty token
  EXPECT_THROW(parse({"--ranks", "2,4,"}), tools::ParseError);  // trailing comma
  EXPECT_THROW(parse({"--ranks", ","}), tools::ParseError);
}

TEST(BenchCli, RejectsMissingValuesAndUnknownOptions) {
  EXPECT_THROW(parse({"--scale"}), tools::ParseError);
  EXPECT_THROW(parse({"--ranks"}), tools::ParseError);
  EXPECT_THROW(parse({"--csv", ""}), tools::ParseError);
  EXPECT_THROW(parse({"--turbo"}), tools::ParseError);
}

TEST(BenchCli, HelperFunctionsValidateStrictly) {
  EXPECT_EQ(tools::parse_positive_int("64", "x"), 64);
  EXPECT_DOUBLE_EQ(tools::parse_positive_double("0.25", "x"), 0.25);
  EXPECT_EQ(tools::parse_positive_int_csv("1,2,3", "x"), (std::vector<int>{1, 2, 3}));
  // Hex/whitespace variants the old atoi-based parser silently accepted.
  EXPECT_THROW((void)tools::parse_positive_int(" 5", "x"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_int("5 ", "x"), tools::ParseError);
  EXPECT_THROW((void)tools::parse_positive_double("1e", "x"), tools::ParseError);
}

}  // namespace
