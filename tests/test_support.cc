/**
 * @file
 * Unit tests for the support substrate: hashing, RNG, strings, results.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/cancel.h"
#include "support/error.h"
#include "support/fsio.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/threadpool.h"
#include "support/trace.h"

namespace firmup {
namespace {

TEST(Hash, Fnv1a64KnownValues)
{
    // FNV-1a reference values.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, CombineOrderMatters)
{
    const std::uint64_t a = fnv1a64("left");
    const std::uint64_t b = fnv1a64("right");
    EXPECT_NE(hash_combine(a, b), hash_combine(b, a));
}

TEST(Hash, ContentHash64SeparatesBoundariesAndBitFlips)
{
    // Every lane-structure boundary length hashes distinctly, for both
    // the zero string and a counting pattern — a lane or tail bug
    // typically collides neighbouring lengths.
    std::set<std::uint64_t> seen;
    std::size_t inputs = 0;
    for (const std::size_t len :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 31u, 32u, 33u, 40u, 64u, 65u}) {
        const std::string zeros(len, '\0');
        std::string counting(len, '\0');
        for (std::size_t i = 0; i < len; ++i) {
            counting[i] = static_cast<char>(i + 1);
        }
        seen.insert(content_hash64(zeros));
        inputs += 1;
        if (len > 0) {
            seen.insert(content_hash64(counting));
            inputs += 1;
        }
    }
    EXPECT_EQ(seen.size(), inputs);

    // Determinism, and single-byte sensitivity at every position of a
    // buffer spanning full blocks plus a ragged tail.
    std::string base(75, 'x');
    const std::uint64_t reference = content_hash64(base);
    EXPECT_EQ(content_hash64(base), reference);
    for (std::size_t i = 0; i < base.size(); ++i) {
        std::string flipped = base;
        flipped[i] = 'y';
        EXPECT_NE(content_hash64(flipped), reference) << "byte " << i;
    }
}

TEST(Hash, Mix64IsInjectiveOnSmallRange)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        seen.insert(mix64(i));
    }
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next();
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.range(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, IndexCoversAllValues)
{
    Rng rng(9);
    std::set<std::size_t> seen;
    for (int i = 0; i < 200; ++i) {
        seen.insert(rng.index(5));
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(rng.chance(1, 1));
        EXPECT_FALSE(rng.chance(0, 7));
    }
}

TEST(Rng, ForkIndependentStreams)
{
    Rng parent(3);
    Rng child1 = parent.fork("a");
    Rng child2 = parent.fork("a");
    // Forks consume parent state, so two same-label forks differ.
    EXPECT_NE(child1.next(), child2.next());
}

TEST(Rng, FromLabelStable)
{
    Rng a = Rng::from_label("wget/ftp_retrieve_glob");
    Rng b = Rng::from_label("wget/ftp_retrieve_glob");
    EXPECT_EQ(a.next(), b.next());
}

TEST(Str, Join)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Str, ToHex)
{
    EXPECT_EQ(to_hex(0x1f), "1f");
    EXPECT_EQ(to_hex(0x1f, 8), "0000001f");
    EXPECT_EQ(to_hex(0), "0");
}

TEST(Str, Strprintf)
{
    EXPECT_EQ(strprintf("%s=%d", "x", 42), "x=42");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Str, StartsWith)
{
    EXPECT_TRUE(starts_with("firmware.bin", "firm"));
    EXPECT_FALSE(starts_with("fir", "firm"));
}

TEST(Str, Split)
{
    const auto parts = split("a/b//c", '/');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Result, ValueAndError)
{
    Result<int> ok(5);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 5);

    auto err = Result<int>::error("nope");
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(err.error_message(), "nope");
}

}  // namespace
}  // namespace firmup

namespace firmup {
namespace {

TEST(FileRead, DirectoryIsIoErrorAndFileGivesItsBytes)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "firmup-read-file";
    fs::remove_all(dir);
    fs::create_directories(dir);
    // A directory opens fine but cannot be read: an IoError, not the
    // exception a stream reader throws.
    auto from_dir = read_file_bytes(dir.string());
    ASSERT_FALSE(from_dir.ok());
    EXPECT_EQ(from_dir.error_code(), ErrorCode::IoError);
    auto missing = read_file_bytes((dir / "missing").string());
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error_code(), ErrorCode::IoError);

    const ByteBuffer want = {0, 'F', 'W', 0xff, '\n', 7};
    const fs::path file = dir / "blob";
    {
        std::ofstream out(file, std::ios::binary);
        out.write(reinterpret_cast<const char *>(want.data()),
                  static_cast<std::streamsize>(want.size()));
    }
    auto bytes = read_file_bytes(file.string());
    ASSERT_TRUE(bytes.ok()) << bytes.error_message();
    EXPECT_EQ(bytes.value(), want);
    std::ofstream(file, std::ios::trunc).close();
    auto empty = read_file_bytes(file.string());
    ASSERT_TRUE(empty.ok()) << empty.error_message();
    EXPECT_TRUE(empty.value().empty());
    fs::remove_all(dir);
}

TEST(FileWrite, PublishReplacesWholeAndLeavesNoTemp)
{
    namespace fs = std::filesystem;
    const ScopedTempDir dir("firmup-publish");
    const auto names = [&dir] {
        std::vector<std::string> out;
        for (const fs::directory_entry &entry :
             fs::directory_iterator(dir.path())) {
            out.push_back(entry.path().filename().string());
        }
        return out;
    };
    const std::string path = dir.path() + "/entry.bin";
    std::ofstream(path, std::ios::binary)
        << "the previous contents, longer than the new ones";
    const ByteBuffer want = {0, 'F', 'W', 0xff, '\n', 7};
    const Result<std::size_t> written = publish_file(path, want);
    ASSERT_TRUE(written.ok()) << written.error_message();
    EXPECT_EQ(written.value(), want.size());
    const Result<ByteBuffer> got = read_file_bytes(path);
    ASSERT_TRUE(got.ok()) << got.error_message();
    EXPECT_EQ(got.value(), want);
    EXPECT_EQ(names(), std::vector<std::string>{"entry.bin"});

    // A missing directory is an IoError, and nothing appears anywhere.
    const Result<std::size_t> missing =
        publish_file(dir.path() + "/absent/entry.bin", want);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error_code(), ErrorCode::IoError);
    EXPECT_EQ(names(), std::vector<std::string>{"entry.bin"});
}

TEST(ParallelFor, CoversEveryIndex)
{
    std::vector<std::atomic<int>> hits(257);
    parallel_for(3, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(ParallelFor, StartsAtMostCountWorkers)
{
    // A worker beyond the item count would only idle: two items on
    // eight threads run on at most two threads.
    std::mutex mutex;
    std::set<std::thread::id> ran_on;
    std::vector<std::atomic<int>> hits(2);
    parallel_for(8, hits.size(), [&](std::size_t i) {
        ++hits[i];
        const std::lock_guard<std::mutex> lock(mutex);
        ran_on.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ran_on.size(), 1u);
    EXPECT_LE(ran_on.size(), hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(ParallelFor, RangesAreTheChunksOfTheIndexSpace)
{
    // Whatever the thread count, fn sees exactly the ranges
    // [k * chunk, min((k + 1) * chunk, count)), each once, so every
    // index is covered once.
    constexpr std::size_t chunk = 5;
    for (const std::size_t count :
         {std::size_t{1}, chunk - 1, chunk, 10 * chunk + 3}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            const std::string context = "count=" + std::to_string(count) +
                                        " threads=" +
                                        std::to_string(threads);
            std::mutex mutex;
            std::vector<std::pair<std::size_t, std::size_t>> got;
            std::vector<std::atomic<int>> hits(count);
            parallel_for(threads, count, chunk,
                         [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                                 ++hits[i];
                             }
                             const std::lock_guard<std::mutex> lock(mutex);
                             got.emplace_back(begin, end);
                         });
            std::sort(got.begin(), got.end());
            std::vector<std::pair<std::size_t, std::size_t>> want;
            for (std::size_t begin = 0; begin < count; begin += chunk) {
                want.emplace_back(begin, std::min(begin + chunk, count));
            }
            EXPECT_EQ(got, want) << context;
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(hits[i].load(), 1) << context << " index " << i;
            }
        }
    }
}

TEST(ParallelFor, OneWorkerRunsRangesInOrderOnTheCaller)
{
    // One worker is the calling thread walking the ranges in order, and
    // a throwing range is the last one to run.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> begins;
    std::set<std::thread::id> ran_on;
    EXPECT_THROW(parallel_for(1, 40, 4,
                              [&](std::size_t begin, std::size_t) {
                                  ran_on.insert(std::this_thread::get_id());
                                  begins.push_back(begin);
                                  if (begin == 12) {
                                      throw std::runtime_error("range 3");
                                  }
                              }),
                 std::runtime_error);
    EXPECT_EQ(begins, (std::vector<std::size_t>{0, 4, 8, 12}));
    EXPECT_EQ(ran_on, std::set<std::thread::id>{caller});
}

TEST(ParallelFor, ObservesOneIdleTailPerWorker)
{
    // 15 ranges on 3 workers: each worker observes its tail wait once.
    trace::MetricsRegistry::global().reset();
    trace::set_level(trace::Level::Metrics);
    parallel_for(3, 30, 2, [](std::size_t, std::size_t) {});
    const trace::Snapshot snap = trace::MetricsRegistry::global().snapshot();
    trace::set_level(trace::Level::Off);
    trace::MetricsRegistry::global().reset();
    const auto idle = snap.histograms.find("threadpool.worker_idle_ns");
    ASSERT_NE(idle, snap.histograms.end());
    EXPECT_EQ(idle->second.count, 3u);
}

TEST(ParallelFor, ZeroWorkIsFine)
{
    parallel_for(4, 0, [](std::size_t) { FAIL(); });
    parallel_for(4, 0, 8, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, PropagatesException)
{
    try {
        parallel_for(4, 10000, [](std::size_t i) {
            if (i == 17) {
                throw std::runtime_error("index 17 is cursed");
            }
        });
        FAIL() << "parallel_for swallowed the worker exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 17 is cursed");
    }
}

TEST(Cancel, TokenIsStickyAndResettable)
{
    CancelToken token;
    EXPECT_FALSE(token.requested());
    token.request();
    EXPECT_TRUE(token.requested());
    token.request();  // idempotent
    EXPECT_TRUE(token.requested());
    token.reset();
    EXPECT_FALSE(token.requested());
}

TEST(Cancel, ProcessTokenIsASingleton)
{
    CancelToken &a = CancelToken::process();
    CancelToken &b = CancelToken::process();
    EXPECT_EQ(&a, &b);
    a.reset();
    b.request();
    EXPECT_TRUE(a.requested());
    a.reset();
}

}  // namespace
}  // namespace firmup
