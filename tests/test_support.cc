/**
 * @file
 * Unit tests for the support substrate: hashing, RNG, strings, results.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "support/cancel.h"
#include "support/error.h"
#include "support/fsio.h"
#include "support/hash.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/str.h"
#include "support/threadpool.h"

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

TEST(ThreadPool, RunsAllTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&counter] { ++counter; });
        }
        pool.wait_idle();
        EXPECT_EQ(counter.load(), 100);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndex)
{
    std::vector<std::atomic<int>> hits(257);
    ThreadPool::parallel_for(3, hits.size(), [&hits](std::size_t i) {
        ++hits[i];
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(ThreadPool, ZeroWorkIsFine)
{
    ThreadPool::parallel_for(4, 0, [](std::size_t) { FAIL(); });
    ThreadPool pool(1);
    pool.wait_idle();
}

TEST(ThreadPool, DestructionDrainsQueue)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i) {
            pool.submit([&counter] { ++counter; });
        }
        // No wait_idle: the destructor must drain before joining.
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleRethrowsFirstWorkerException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    EXPECT_TRUE(pool.cancelled());
    // The exception is delivered once; a second wait is clean.
    pool.wait_idle();
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    try {
        ThreadPool::parallel_for(4, 10000, [](std::size_t i) {
            if (i == 17) {
                throw std::runtime_error("index 17 is cursed");
            }
        });
        FAIL() << "parallel_for swallowed the worker exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 17 is cursed");
    }
}

TEST(ThreadPool, ExceptionDoesNotLoseOtherTasks)
{
    std::atomic<int> counter{0};
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
        pool.submit([&counter, i] {
            if (i == 5) {
                throw std::runtime_error("boom");
            }
            ++counter;
        });
    }
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // submit()ed tasks are independent: all non-throwing ones ran.
    EXPECT_EQ(counter.load(), 31);
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

TEST(Retry, TransientTaxonomyIsExactlyIoAndBudget)
{
    // The permanent/transient split is the single source of truth the
    // driver's retry loop keys on: only failures a retry can plausibly
    // fix qualify. Everything else must fail fast, once.
    for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
        const auto code = static_cast<ErrorCode>(i);
        const bool transient = code == ErrorCode::IoError ||
                               code == ErrorCode::BudgetExhausted;
        EXPECT_EQ(error_code_transient(code), transient)
            << "code " << i;
    }
}

TEST(Retry, TransientFailureRetriesUntilSuccess)
{
    RetryPolicy policy;
    policy.max_retries = 3;
    int calls = 0;
    int retries = -1;
    auto result = retry_transient(
        policy, nullptr,
        [&calls] {
            ++calls;
            if (calls < 3) {
                return Result<int>::error(ErrorCode::IoError, "flaky");
            }
            return Result<int>(7);
        },
        &retries);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value(), 7);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(retries, 2);
}

TEST(Retry, PermanentFailureIsNeverRetried)
{
    RetryPolicy policy;
    policy.max_retries = 5;
    int calls = 0;
    auto result = retry_transient(policy, nullptr, [&calls] {
        ++calls;
        return Result<int>::error(ErrorCode::MalformedContainer, "bad");
    });
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(calls, 1);
}

TEST(Retry, BudgetIsBounded)
{
    RetryPolicy policy;
    policy.max_retries = 2;
    int calls = 0;
    int retries = -1;
    auto result = retry_transient(
        policy, nullptr,
        [&calls] {
            ++calls;
            return Result<int>::error(ErrorCode::IoError, "still flaky");
        },
        &retries);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.error_code(), ErrorCode::IoError);
    EXPECT_EQ(calls, 3);  // first attempt + 2 retries
    EXPECT_EQ(retries, 2);
}

TEST(Retry, CancellationStopsRetrying)
{
    RetryPolicy policy;
    policy.max_retries = 100;
    CancelToken token;
    token.request();
    int calls = 0;
    auto result = retry_transient(policy, &token, [&calls] {
        ++calls;
        return Result<int>::error(ErrorCode::IoError, "flaky");
    });
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(calls, 1);  // drained, not hammered, during shutdown
}

TEST(Retry, ZeroPolicyDisablesRetries)
{
    int calls = 0;
    auto result = retry_transient(RetryPolicy{}, nullptr, [&calls] {
        ++calls;
        return Result<int>::error(ErrorCode::IoError, "flaky");
    });
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace firmup
