/**
 * @file
 * The command-line options layer (eval/flags.h) and the verbs on it.
 *
 * The unit tests pin the grammar: unknown flags, missing values, inline
 * optional values, tolerant number parsing, and the shared scan group
 * with its inverse. The real-binary tests drive the built `firmup`
 * (FIRMUP_TOOL_PATH) the way a user does: every numeric flag of every
 * verb rejects negative, non-numeric and out-of-range values with exit
 * 2, a mistyped or valueless flag never turns into a blob path, and
 * `exec` reports bad numbers instead of aborting.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "eval/flags.h"
#include "firmware/corpus.h"
#include "support/fsio.h"
#include "support/str.h"

namespace firmup::eval {
namespace {

TEST(ParseNumber, AcceptsWholeNumbersInRangeOnly)
{
    int i = 7;
    EXPECT_TRUE(parse_number("42", i, 0));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parse_number("-3", i));
    EXPECT_EQ(i, -3);
    for (const char *bad : {"", " 4", "4 ", "4x", "x4", "-1", "1.5",
                            "99999999999999999999"}) {
        int out = 9;
        EXPECT_FALSE(parse_number(bad, out, 0)) << bad;
        EXPECT_EQ(out, 9) << bad;  // untouched on failure
    }
    std::uint64_t u = 0;
    EXPECT_TRUE(parse_number("18446744073709551615", u));
    EXPECT_EQ(u, ~std::uint64_t{0});
    EXPECT_FALSE(parse_number("-1", u));  // no wrap-around
    EXPECT_FALSE(parse_number("18446744073709551616", u));
    EXPECT_TRUE(parse_number("1f", u, 0, ~std::uint64_t{0}, 16));
    EXPECT_EQ(u, 0x1fu);
    EXPECT_FALSE(parse_number("zz", u, 0, ~std::uint64_t{0}, 16));
    long long c = 0;
    EXPECT_TRUE(parse_number("0x10", c, -10, 100, 0));
    EXPECT_EQ(c, 16);
    EXPECT_TRUE(parse_number("-010", c, -10, 100, 0));
    EXPECT_EQ(c, -8);
    double d = 0.0;
    EXPECT_TRUE(parse_number("2.5", d));
    EXPECT_EQ(d, 2.5);
    for (const char *bad : {"nan", "inf", "1e999", "2.5s"}) {
        EXPECT_FALSE(parse_number(bad, d)) << bad;
    }
}

TEST(ParseFlags, UsageErrorsNeverBecomePositionals)
{
    std::string journal;
    bool resume = false;
    int iters = 1;
    std::string limit = "unset";
    const std::vector<Flag> flags = {
        string_flag("--journal", journal),
        switch_flag("--resume", resume),
        number_flag("--iters", iters, 1),
        {"--fail", Flag::Arity::Optional,
         [&limit](const std::string &value) {
             limit = value;
             return true;
         }}};
    std::vector<std::string> positionals;
    ASSERT_TRUE(parse_flags({"a.fw", "--journal", "j", "--resume", "b.fw",
                             "--iters", "3", "--fail=2"},
                            flags, positionals));
    EXPECT_EQ(positionals, (std::vector<std::string>{"a.fw", "b.fw"}));
    EXPECT_EQ(journal, "j");
    EXPECT_TRUE(resume);
    EXPECT_EQ(iters, 3);
    EXPECT_EQ(limit, "2");
    ASSERT_TRUE(parse_flags({"--fail"}, flags, positionals));
    EXPECT_EQ(limit, "");

    for (const std::vector<std::string> &bad :
         std::vector<std::vector<std::string>>{
             {"--journall", "j"},         // unknown
             {"a.fw", "--journal"},       // no value at the end
             {"--journal", "--resume"},   // a flag where the value goes
             {"--journal=j"},             // no inline form for values
             {"--resume=yes"},            // switches take no value
             {"--fail="},                 // empty inline value
             {"--iters", "0"},            // below the flag's range
             {"--iters", "two"}}) {       // not a number
        std::vector<std::string> rest;
        EXPECT_FALSE(parse_flags(bad, flags, rest)) << join(bad, " ");
    }
}

TEST(ScanFlags, PositionalCveAndInverseRoundTrip)
{
    ScanFlags scan;
    std::vector<std::string> blobs;
    ASSERT_TRUE(parse_scan_args({"CVE-1", "a.fw", "b.fw"}, {}, scan, blobs));
    EXPECT_EQ(scan.cve_ids, std::vector<std::string>{"CVE-1"});
    EXPECT_EQ(blobs, (std::vector<std::string>{"a.fw", "b.fw"}));
    EXPECT_TRUE(scan.mmap_index);

    ScanFlags full;
    ASSERT_TRUE(parse_scan_args(
        {"--cve-list", ",CVE-1,,CVE-2,", "a b.fw", "--index-cache", "s d",
         "--no-mmap"},
        {}, full, blobs));
    EXPECT_EQ(full.cve_ids, (std::vector<std::string>{"CVE-1", "CVE-2"}));
    EXPECT_EQ(blobs, std::vector<std::string>{"a b.fw"});

    std::vector<std::string> args = scan_flag_args(full);
    args.push_back("a b.fw");
    ScanFlags back;
    ASSERT_TRUE(parse_scan_args(args, {}, back, blobs));
    EXPECT_EQ(back.cve_ids, full.cve_ids);
    EXPECT_EQ(back.index_cache_dir, full.index_cache_dir);
    EXPECT_EQ(back.mmap_index, full.mmap_index);

    for (const std::vector<std::string> &bad :
         std::vector<std::vector<std::string>>{
             {"CVE-1"},                        // no blob
             {"--cve-list", ",,", "a.fw"},     // no CVE in the list
             {"CVE-1", "a.fw", "--index-cache"},
             {"CVE-1", "--no-mmapp", "a.fw"}}) {
        ScanFlags ignored;
        EXPECT_FALSE(parse_scan_args(bad, {}, ignored, blobs))
            << join(bad, " ");
    }
}

/** Run `firmup @p args` via the shell; its stdout goes to @p out_path. */
int
cli(const std::string &args, const std::string &out_path = "/dev/null",
    const std::string &err_path = "/dev/null")
{
    const int status =
        std::system((std::string(FIRMUP_TOOL_PATH) + " " + args + " > " +
                     out_path + " 2> " + err_path)
                        .c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(CliFlags, NumericFlagsRejectBadValuesOnEveryVerb)
{
    const ScopedTempDir tmp("firmup-cli");
    const std::string blob = tmp.path() + "/missing.fw";  // never created
    const std::string cve = "CVE-2011-0762";
    struct Row
    {
        std::string command;  ///< the verb and its other arguments
        std::string flag;
        std::string good;
        std::string out_of_range = "99999999999999999999";
    };
    std::vector<Row> rows = {
        {"corpus --devices 1 --out " + tmp.path(), "--devices", "1"},
        {"corpus --devices 1 --out " + tmp.path(), "--seed", "7"},
        {"corpus --devices 1 --out " + tmp.path(), "--scale", "1"},
        {"fuzz-unpack " + blob, "--iters", "1"},
        {"fuzz-unpack " + blob, "--seed", "7"},
        {"shard-scan " + cve + " " + blob, "--workers", "2", "257"},
        {"shard-scan " + cve + " " + blob, "--worker-threads", "1"},
        {"shard-scan " + cve + " " + blob, "--heartbeat", "5", "1e999"},
        {"shard-scan " + cve + " " + blob, "--max-respawns", "1"},
        {"shard-scan " + cve + " " + blob, "--kill-first-after", "1"},
        {"--worker --cve-list " + cve + " " + blob, "--shard-index", "0"},
        {"--worker --cve-list " + cve + " " + blob, "--shard-count", "1"},
        {"--worker --cve-list " + cve + " " + blob, "--threads", "1"},
        {"--worker --cve-list " + cve + " " + blob, "--heartbeat", "5",
         "1e999"},
        {"--worker --cve-list " + cve + " " + blob, "--exit-after", "1"},
    };
    const std::string trace = "trace --trace-out " + tmp.path() + "/t.json";
    for (const std::string &verb : {std::string("search"), trace}) {
        const std::string base = verb + " " + cve + " " + blob;
        rows.push_back({base + " --shard-count 2", "--shard-index", "1"});
        rows.push_back({base + " --shard-index 0", "--shard-count", "2"});
        rows.push_back({base, "--target-budget", "5", "1e999"});
        rows.push_back({base, "--cancel-after", "1"});
        rows.push_back({base, "--fail-on-quarantine=", "1"});
    }
    const auto with = [](const Row &row, const std::string &value) {
        const bool inline_value = row.flag.back() == '=';
        return row.command + " " + row.flag + (inline_value ? "" : " ") +
               value;
    };
    for (const Row &row : rows) {
        for (const std::string &bad : {std::string("-1"),
                                       std::string("x1"),
                                       row.out_of_range}) {
            EXPECT_EQ(cli(with(row, bad)), 2) << with(row, bad);
        }
        const int good = cli(with(row, row.good));
        EXPECT_NE(good, 2) << with(row, row.good);
        EXPECT_GE(good, 0) << with(row, row.good);
    }
}

/** A small corpus written to real blobs (the shared blob writer). */
struct Blobs
{
    ScopedTempDir dir{"firmup-cli-blobs"};
    std::vector<std::string> paths;
    std::string with_wget;  ///< a blob that ships a `wget` member

    Blobs()
    {
        firmware::CorpusOptions options;
        options.num_devices = 4;
        const firmware::Corpus corpus = firmware::build_corpus(options);
        auto written =
            firmware::write_corpus_blobs(corpus, options.seed, dir.path());
        if (!written.ok()) {
            ADD_FAILURE() << written.error_message();
            return;
        }
        paths = std::move(written).take();
        for (std::size_t i = 0; i < corpus.images.size(); ++i) {
            for (const loader::Executable &exe :
                 corpus.images[i].executables) {
                if (with_wget.empty() && exe.name == "wget") {
                    with_wget = paths[i];
                }
            }
        }
    }
    std::string all() const { return join(paths, " "); }
};

TEST(CliFlags, MistypedOrValuelessFlagsAreUsageErrors)
{
    const Blobs blobs;
    const std::string out = blobs.dir.path() + "/out.txt";
    for (const std::string &args :
         {"search CVE-2011-0762 --no-mmapp " + blobs.all(),
          "search CVE-2011-0762 " + blobs.all() + " --index-cache",
          "shard-scan CVE-2011-0762 --workrs 2 " + blobs.all(),
          // Real flags, but not this verb's.
          "search CVE-2011-0762 --workers 2 " + blobs.all(),
          "index " + blobs.paths.front() + " --no-mmap",
          // Removed flags stay removed.
          "search CVE-2011-0762 --passes 2 " + blobs.all(),
          "shard-scan CVE-2011-0762 --passes 2 " + blobs.all(),
          "trace CVE-2011-0762 --trace-out " + blobs.dir.path() +
              "/t.json --resident-cache-mb 8 " + blobs.all(),
          "shard-scan CVE-2011-0762 --resident-cache-mb 8 " +
              blobs.all()}) {
        EXPECT_EQ(cli(args, out), 2) << args;
        EXPECT_EQ(slurp(out).find("VULNERABLE"), std::string::npos) << args;
    }
}

TEST(CliExec, BadNumbersAreUsageErrorsNotAborts)
{
    const Blobs blobs;
    ASSERT_FALSE(blobs.with_wget.empty());
    const std::string exec = "exec " + blobs.with_wget + " wget ";
    EXPECT_EQ(cli(exec + "@zz"), 2);
    EXPECT_EQ(cli(exec + "@"), 2);
    EXPECT_EQ(cli(exec + "@1000 xyz"), 2);
    EXPECT_EQ(cli(exec + "@1000 4294967296"), 2);
    // Well-formed numbers get past the parser: this entry is no
    // procedure, which the interpreter reports as a failed run.
    EXPECT_EQ(cli(exec + "@1000 0x10 -1"), 1);
}

TEST(CliVerbs, CorpusCreatesItsOutDirBeforeGenerating)
{
    // `corpus --out` creates a missing DIR, parents included, as
    // --index-cache and --state do, and the blobs it writes there scan.
    const ScopedTempDir tmp("firmup-cli");
    const std::string dir = tmp.path() + "/new/corpus";
    const std::string out = tmp.path() + "/out.txt";
    const std::string err = tmp.path() + "/err.txt";
    ASSERT_EQ(cli("corpus --devices 1 --out " + dir, out, err), 0)
        << slurp(err);
    std::vector<std::string> blobs;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        blobs.push_back(entry.path().string());
    }
    ASSERT_FALSE(blobs.empty());
    std::sort(blobs.begin(), blobs.end());
    const std::string stats = tmp.path() + "/stats.json";
    const int found = cli("search CVE-2011-0762 " + join(blobs, " ") +
                              " --stats-json " + stats,
                          out);
    EXPECT_TRUE(found == 0 || found == 3) << found;  // 3: no findings
    const std::string json = slurp(stats);
    const std::string key = "\"scan.content_keys\": ";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_GT(std::stoul(json.substr(at + key.size())), 0u) << json;

    // A DIR that cannot be created fails before any generation, naming
    // the DIR rather than a blob inside it.
    const std::string file = tmp.path() + "/out.txt";
    EXPECT_EQ(cli("corpus --devices 1 --out " + file, "/dev/null", err), 1);
    EXPECT_NE(slurp(err).find("cannot create " + file), std::string::npos)
        << slurp(err);
}

TEST(CliVerbs, BenchJsonIsNotAFirmupVerb)
{
    const ScopedTempDir tmp("firmup-cli");
    const std::string err = tmp.path() + "/err.txt";
    EXPECT_EQ(cli("bench-json --only best_match", "/dev/null", err), 2);
    EXPECT_NE(slurp(err).find("usage: firmup"), std::string::npos);
}

}  // namespace
}  // namespace firmup::eval
