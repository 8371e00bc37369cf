/// Fuzz-style corpus test for the text parsers: every checked-in malformed
/// input under tests/data/corpus/ (truncated lines, NUL bytes, giant
/// counts, binary garbage) must be rejected with the parser's structured
/// error type — isa::ParseError, sim::TraceParseError,
/// workload::WorkloadConfigError, or util::Error — and never crash, hang,
/// or throw anything unstructured. New crash inputs found in the wild are
/// added as files; the harness picks them up without a code change
/// (docs/testing.md).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "rispp/isa/io.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/obs/csv_trace.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/phased.hpp"

namespace {

namespace fs = std::filesystem;

/// Corpus entries for one parser family, sorted for stable test output.
/// The directory must exist and be non-empty — an empty corpus means the
/// data dir is mis-wired, which must fail loudly rather than vacuously pass.
std::vector<fs::path> corpus(const char* family) {
  const fs::path dir = fs::path(RISPP_TEST_DATA_DIR) / "corpus" / family;
  EXPECT_TRUE(fs::is_directory(dir)) << "corpus dir missing: " << dir;
  std::vector<fs::path> files;
  if (fs::is_directory(dir))
    for (const auto& e : fs::directory_iterator(dir))
      if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  EXPECT_FALSE(files.empty()) << "empty corpus: " << dir;
  return files;
}

/// Runs `parse` on one corpus file and requires the structured rejection:
/// ExpectedError (or a subclass) thrown, nothing else.
template <typename ExpectedError, typename ParseFn>
void expect_structured_rejection(const fs::path& file, ParseFn parse) {
  SCOPED_TRACE("corpus file: " + file.filename().string());
  std::ifstream in(file, std::ios::binary);
  ASSERT_TRUE(in.good());
  try {
    parse(in);
    ADD_FAILURE() << "malformed input was accepted";
  } catch (const ExpectedError& e) {
    EXPECT_STRNE(e.what(), "") << "rejection without a diagnostic";
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unstructured exception type escaped the parser: "
                  << e.what();
  }
}

TEST(ParserCorpus, SiLibraryParserRejectsEveryMalformedInput) {
  for (const auto& file : corpus("si"))
    expect_structured_rejection<rispp::isa::ParseError>(
        file, [](std::istream& in) { (void)rispp::isa::parse_si_library(in); });
}

TEST(ParserCorpus, TraceParserRejectsEveryMalformedInput) {
  const auto lib = rispp::isa::SiLibrary::h264();
  for (const auto& file : corpus("trace"))
    expect_structured_rejection<rispp::sim::TraceParseError>(
        file,
        [&](std::istream& in) { (void)rispp::sim::parse_tasks(in, lib); });
}

TEST(ParserCorpus, CsvTraceParserRejectsEveryMalformedInput) {
  for (const auto& file : corpus("obs_csv"))
    expect_structured_rejection<rispp::util::Error>(file, [](std::istream& in) {
      (void)rispp::obs::read_csv_trace(in, nullptr);
    });
}

TEST(ParserCorpus, WorkloadConfigParserRejectsEveryMalformedInput) {
  for (const auto& file : corpus("workload"))
    expect_structured_rejection<rispp::workload::WorkloadConfigError>(
        file, [](std::istream& in) {
          (void)rispp::workload::parse_phased_config(in);
        });
}

// A few inline cases pinning the *kind* of rejection for inputs the corpus
// covers as opaque bytes — so a parser regression shows up with a readable
// diff, not just "file X no longer throws".

TEST(ParserCorpus, SiLibraryDiagnosticsCarryLineNumbers) {
  try {
    (void)rispp::isa::parse_si_library(
        "catalog\n  atom A slices=1 luts=2 bitstream=100\nend\n"
        "si X software=5\n  molecule cycles=1 Z=1\nend\n");
    FAIL() << "unknown atom accepted";
  } catch (const rispp::isa::ParseError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("unknown atom"), std::string::npos);
  }
  // SpecialInstruction's own rules (here: a hardware Molecule no faster
  // than software) report the si header's line, not a source location.
  try {
    (void)rispp::isa::parse_si_library(
        "catalog\n  atom A slices=1 luts=2 bitstream=100\nend\n"
        "si SLOW software=100\n  molecule cycles=150 A=1\nend\n");
    FAIL() << "molecule slower than software accepted";
  } catch (const rispp::isa::ParseError& e) {
    EXPECT_EQ(e.line(), 4u);
    EXPECT_NE(std::string(e.what()).find("faster than software"),
              std::string::npos);
  }
}

TEST(ParserCorpus, TraceDiagnosticsCarryLineNumbers) {
  const auto lib = rispp::isa::SiLibrary::h264();
  try {
    (void)rispp::sim::parse_tasks("task a\n  compute -5\n", lib);
    FAIL() << "negative count accepted";
  } catch (const rispp::sim::TraceParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(ParserCorpus, SignedCountsAreRejectedNotWrapped) {
  // std::stoull accepts "-1" and wraps it to 2^64-1 with no exception; the
  // library parser must reject signed values the way the trace parser does
  // (found by minimizing generator output — genlib_negative_count.si).
  try {
    (void)rispp::isa::parse_si_library(
        "catalog\n  atom A slices=1 luts=2 bitstream=100\nend\n"
        "si X software=5\n  molecule cycles=1 A=-1\nend\n");
    FAIL() << "signed atom count accepted";
  } catch (const rispp::isa::ParseError& e) {
    EXPECT_EQ(e.line(), 5u);
    EXPECT_NE(std::string(e.what()).find("invalid number"),
              std::string::npos);
  }
}

TEST(ParserCorpus, GiantCountsOverflowToErrorsNotWraparound) {
  // 26 nines overflows uint64_t; both parsers must say "invalid number"
  // instead of wrapping modulo 2^64 into a silently-wrong value.
  EXPECT_THROW(
      (void)rispp::isa::parse_si_library(
          "catalog\n  atom A slices=99999999999999999999999999 luts=2 "
          "bitstream=100\nend\nsi X software=5\n  molecule cycles=1 A=1\n"
          "end\n"),
      rispp::isa::ParseError);
  const auto lib = rispp::isa::SiLibrary::h264();
  EXPECT_THROW((void)rispp::sim::parse_tasks(
                   "task a\n  compute 99999999999999999999999999\n", lib),
               rispp::sim::TraceParseError);
}

}  // namespace
