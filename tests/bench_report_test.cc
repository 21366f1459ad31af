// Tests for bench/report.h: the flag parser, the JSON writer and the gates
// every bench target shares.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "../bench/report.h"

namespace dblrep::bench {
namespace {

bool parse(Flags& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return flags.parse(static_cast<int>(args.size()), args.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------------------ Flags

TEST(Flags, TypedValuesInAnyOrderAndDefaults) {
  std::size_t stripes = 4;
  std::size_t reps = 8;
  int trials = 40;
  double min_time = 0.2;
  std::string json = "BENCH_x.json";
  bool csv = false;
  bool skip = false;
  Flags flags;
  flags.add("stripes", &stripes);
  flags.add("reps", &reps);
  flags.add("trials", &trials);
  flags.add("min-time", &min_time);
  flags.add("json", &json);
  flags.add("csv", &csv);
  flags.add("skip", &skip);
  ASSERT_TRUE(parse(flags, {"--trials=2", "--csv", "--min-time=0.05",
                            "--json=out.json", "--stripes=12"}));
  EXPECT_EQ(stripes, 12u);
  EXPECT_EQ(trials, 2);
  EXPECT_DOUBLE_EQ(min_time, 0.05);
  EXPECT_EQ(json, "out.json");
  EXPECT_TRUE(csv);
  // Flags not given keep their defaults.
  EXPECT_EQ(reps, 8u);
  EXPECT_FALSE(skip);
  EXPECT_TRUE(flags.error().empty());
}

TEST(Flags, CommaListsReplaceTheDefault) {
  std::vector<std::size_t> shards = {1, 4, 16};
  std::vector<std::string> schemes = {"rs-10-4"};
  std::vector<std::string> mixes = {"mixed"};
  Flags flags;
  flags.add("shards", &shards);
  flags.add("schemes", &schemes);
  flags.add("mixes", &mixes);
  ASSERT_TRUE(parse(flags, {"--shards=2,8", "--schemes=pentagon,,heptagon",
                            "--mixes="}));
  EXPECT_EQ(shards, (std::vector<std::size_t>{2, 8}));
  EXPECT_EQ(schemes, (std::vector<std::string>{"pentagon", "heptagon"}));
  EXPECT_TRUE(mixes.empty());
}

TEST(Flags, RejectsUnknownFlagsAndPositionalArguments) {
  int trials = 10;
  Flags flags;
  flags.add("trials", &trials);
  EXPECT_FALSE(parse(flags, {"--trails=1"}));
  EXPECT_NE(flags.error().find("unknown flag --trails"), std::string::npos);
  // The old space-separated form is a bare flag followed by a positional.
  EXPECT_FALSE(parse(flags, {"--trials", "2"}));
  EXPECT_NE(flags.error().find("missing value"), std::string::npos);
  EXPECT_FALSE(parse(flags, {"2"}));
  EXPECT_NE(flags.error().find("unexpected argument"), std::string::npos);
  EXPECT_EQ(trials, 10);
  EXPECT_NE(flags.usage().find("[--trials=N]"), std::string::npos);
}

TEST(Flags, RejectsMalformedValuesWithoutTouchingTheTarget) {
  int trials = 10;
  std::size_t stripes = 4;
  double min_time = 0.2;
  std::vector<std::size_t> workers = {0, 1};
  bool csv = false;
  Flags flags;
  flags.add("trials", &trials);
  flags.add("stripes", &stripes);
  flags.add("min-time", &min_time);
  flags.add("workers", &workers);
  flags.add("csv", &csv);
  for (const char* bad :
       {"--trials=abc", "--trials=", "--trials=3x", "--stripes=-1",
        "--stripes=1e3", "--min-time=fast", "--min-time=nan",
        "--min-time=inf", "--workers=0,two,8", "--csv=1"}) {
    EXPECT_FALSE(parse(flags, {bad})) << bad;
    EXPECT_FALSE(flags.error().empty()) << bad;
  }
  EXPECT_EQ(trials, 10);
  EXPECT_EQ(stripes, 4u);
  EXPECT_DOUBLE_EQ(min_time, 0.2);
  EXPECT_EQ(workers, (std::vector<std::size_t>{0, 1}));
  EXPECT_FALSE(csv);
  EXPECT_NE(flags.error().find("--csv takes no value"), std::string::npos);
}

TEST(Flags, FailReturnsTheBadFlagsExitCode) {
  Flags flags;
  EXPECT_EQ(flags.fail("--stripes must be nonzero"), 2);
  EXPECT_EQ(flags.error(), "--stripes must be nonzero");
}

// ------------------------------------------------------------------- Json

TEST(Json, EscapesQuoteBackslashAndControlBytes) {
  Json json;
  json.begin_object().field("s", std::string("a\"b\\c\x01" "d\n")).end();
  EXPECT_EQ(json.str(), "{\n  \"s\": \"a\\\"b\\\\c\\u0001d\\u000a\"\n}\n");
}

TEST(Json, NonFiniteDoublesAreNull) {
  Json json;
  json.begin_array()
      .element(std::numeric_limits<double>::infinity())
      .element(-std::numeric_limits<double>::infinity())
      .element(std::nan(""))
      .element(0.5)
      .end();
  EXPECT_EQ(json.str(), "[\n  null,\n  null,\n  null,\n  0.5\n]\n");
}

TEST(Json, NumbersKeepTheirTypeAndRowsStayOnOneLine) {
  Json json;
  json.begin_object()
      .field("bench", "x")
      .begin_array("results")
      .begin_object()
      .field("bytes", std::size_t{98304})
      .field("rate", 5.0 / 6.0)
      .field("big", 1234567.0)
      .field("ok", true)
      .field("delta", -3)
      .end()
      .end()
      .end();
  EXPECT_EQ(json.str(),
            "{\n  \"bench\": \"x\",\n  \"results\": [\n    {\"bytes\": 98304, "
            "\"rate\": 0.833333, \"big\": 1.23457e+06, \"ok\": true, "
            "\"delta\": -3}\n  ]\n}\n");
}

// ------------------------------------------------------------------ Gates

TEST(Report, FailingGateFlipsTheExitCode) {
  const std::string path = testing::TempDir() + "bench_report_test.json";
  Report passing("demo");
  passing.gate("overhead below baseline", 3.0, 1.985, 1.985 < 3.0);
  passing.gate("bytes identical", true);
  EXPECT_TRUE(passing.passed());
  EXPECT_EQ(passing.finish(path), 0);
  EXPECT_NE(read_file(path).find(
                "{\"name\": \"bytes identical\", \"threshold\": 1, "
                "\"measured\": 1, \"pass\": true}"),
            std::string::npos);

  Report failing("demo");
  failing.gate("overhead below baseline", 3.0, 1.985, true);
  failing.gate("p99 within budget", 3.0, 4.5, 4.5 <= 3.0);
  EXPECT_FALSE(failing.passed());
  EXPECT_EQ(failing.finish(path), 1);
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"bench\": \"demo\""), std::string::npos);
  EXPECT_NE(text.find("{\"name\": \"p99 within budget\", \"threshold\": 3, "
                      "\"measured\": 4.5, \"pass\": false}"),
            std::string::npos);
}

TEST(Report, UnwritablePathFails) {
  Report report("demo");
  report.gate("fine", true);
  EXPECT_EQ(report.finish(testing::TempDir() + "no/such/dir/x.json"), 1);
}

}  // namespace
}  // namespace dblrep::bench
