/**
 * @file
 * Tests for the support substrate: nibble/bit stream writers and
 * readers (the carrier of every compressed program), the worker pool
 * behind every parallel stage, the deterministic RNG, the JSON writer
 * used for pipeline statistics and benchmark output, and the sealed
 * container and crash-safe write behind every file the repo reads
 * back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "support/bitstream.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/serialize.hh"
#include "support/thread_pool.hh"

using namespace codecomp;

namespace {

TEST(NibbleStream, SingleNibblesRoundTrip)
{
    NibbleWriter writer;
    for (unsigned v = 0; v < 16; ++v)
        writer.putNibble(static_cast<uint8_t>(v));
    EXPECT_EQ(writer.nibbleCount(), 16u);
    EXPECT_EQ(writer.sizeBytes(), 8u);

    NibbleReader reader(writer.bytes().data(), writer.nibbleCount());
    for (unsigned v = 0; v < 16; ++v)
        EXPECT_EQ(reader.getNibble(), v);
    EXPECT_TRUE(reader.atEnd());
}

TEST(NibbleStream, HighNibbleFirst)
{
    NibbleWriter writer;
    writer.putNibble(0xa);
    writer.putNibble(0x5);
    EXPECT_EQ(writer.bytes()[0], 0xa5);
    writer.putNibble(0xf); // odd count: low nibble of byte 1 is zero
    EXPECT_EQ(writer.bytes()[1], 0xf0);
    EXPECT_EQ(writer.sizeBytes(), 2u);
    EXPECT_EQ(writer.nibbleCount(), 3u);
}

TEST(NibbleStream, MultiNibbleValues)
{
    NibbleWriter writer;
    writer.putNibbles(0x123, 3);
    writer.putWord(0xdeadbeef);
    NibbleReader reader(writer.bytes().data(), writer.nibbleCount());
    EXPECT_EQ(reader.getNibbles(3), 0x123u);
    EXPECT_EQ(reader.getWord(), 0xdeadbeefu);
}

TEST(NibbleStream, SeekSupportsRandomAccess)
{
    NibbleWriter writer;
    for (int i = 0; i < 64; ++i)
        writer.putNibble(static_cast<uint8_t>(i % 16));
    NibbleReader reader(writer.bytes().data(), writer.nibbleCount());
    reader.seek(33);
    EXPECT_EQ(reader.getNibble(), 33 % 16);
    reader.seek(0);
    EXPECT_EQ(reader.getNibble(), 0u);
}

TEST(BitStream, MsbFirstAndRoundTrip)
{
    BitWriter writer;
    writer.putBits(0b101, 3);
    writer.putBits(0b0110, 4);
    writer.putBit(true);
    EXPECT_EQ(writer.bitCount(), 8u);
    EXPECT_EQ(writer.bytes()[0], 0b10101101);

    BitReader reader(writer.bytes().data(), writer.bitCount());
    EXPECT_EQ(reader.getBits(3), 0b101u);
    EXPECT_EQ(reader.getBits(4), 0b0110u);
    EXPECT_TRUE(reader.getBit());
    EXPECT_TRUE(reader.atEnd());
}

TEST(BitStream, CrossByteValues)
{
    BitWriter writer;
    writer.putBits(0x1ffff, 17);
    writer.putBits(0, 2);
    writer.putBits(0x3fff, 14);
    BitReader reader(writer.bytes().data(), writer.bitCount());
    EXPECT_EQ(reader.getBits(17), 0x1ffffu);
    EXPECT_EQ(reader.getBits(2), 0u);
    EXPECT_EQ(reader.getBits(14), 0x3fffu);
}

/** Write/read interleave property over random chunk sizes. */
class StreamProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(StreamProperty, RandomChunksRoundTrip)
{
    Rng rng(GetParam());
    std::vector<std::pair<uint32_t, unsigned>> chunks;
    BitWriter bits;
    NibbleWriter nibbles;
    for (int i = 0; i < 500; ++i) {
        unsigned n = 1 + static_cast<unsigned>(rng.below(8));
        uint32_t value =
            static_cast<uint32_t>(rng.next()) & (0xffffffffu >> (32 - 4 * n));
        chunks.emplace_back(value, n);
        nibbles.putNibbles(value, n);
        bits.putBits(value, 4 * n);
    }
    NibbleReader nr(nibbles.bytes().data(), nibbles.nibbleCount());
    BitReader br(bits.bytes().data(), bits.bitCount());
    for (const auto &[value, n] : chunks) {
        EXPECT_EQ(nr.getNibbles(n), value);
        EXPECT_EQ(br.getBits(4 * n), value);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamProperty,
                         ::testing::Values(1, 7, 99, 12345));

// ---------------- thread pool ----------------

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        constexpr size_t n = 10000;
        std::vector<std::atomic<int>> visits(n);
        pool.parallelFor(n, [&visits](size_t i) { visits[i]++; });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[i].load(), 1) << "threads " << threads
                                           << " index " << i;
    }
}

TEST(ThreadPool, RunBatchExecutesAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 1; i <= 100; ++i)
        tasks.push_back([&sum, i] { sum += i; });
    pool.runBatch(std::move(tasks));
    EXPECT_EQ(sum.load(), 5050);
    pool.runBatch({}); // empty batch is a no-op
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 100; ++i)
        tasks.push_back([&completed, i] {
            if (i == 37)
                throw std::runtime_error("task 37");
            completed++;
        });
    EXPECT_THROW(pool.runBatch(std::move(tasks)), std::runtime_error);
    // Every other task in the batch still ran to completion.
    EXPECT_EQ(completed.load(), 99);
}

TEST(ThreadPool, PoolIsReusableAfterException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8, [](size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.parallelFor(64, [&count](size_t) { count++; });
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    // A parallel stage may itself invoke a parallel stage (suite
    // fan-out -> per-program candidate sharding); the inner one must
    // run inline rather than deadlocking on the busy pool.
    setGlobalJobs(4);
    std::atomic<int> inner{0};
    globalPool().parallelFor(8, [&inner](size_t) {
        globalPool().parallelFor(16, [&inner](size_t) { inner++; });
    });
    EXPECT_EQ(inner.load(), 8 * 16);
    setGlobalJobs(0);
}

TEST(ThreadPool, ParallelMapPreservesIndexOrder)
{
    setGlobalJobs(4);
    std::vector<int> squares = parallelMap<int>(
        500, [](size_t i) { return static_cast<int>(i * i); });
    for (size_t i = 0; i < squares.size(); ++i)
        ASSERT_EQ(squares[i], static_cast<int>(i * i));
    setGlobalJobs(0);
}

TEST(ThreadPool, JobsKnobPriorities)
{
    // setGlobalJobs overrides everything; 0 restores the default,
    // which is at least 1 whatever the environment says.
    setGlobalJobs(3);
    EXPECT_EQ(globalJobs(), 3u);
    setGlobalJobs(0);
    EXPECT_GE(globalJobs(), 1u);
}

TEST(ThreadPool, EnvJobsRejectsTrailingGarbage)
{
    // CODECOMP_JOBS must be a whole positive integer; "8abc" used to
    // be silently accepted as 8 (strtol without an end check).
    ::unsetenv("CODECOMP_JOBS");
    unsigned fallback = defaultJobs();
    unsigned want = fallback == 7 ? 9u : 7u;

    ::setenv("CODECOMP_JOBS", std::to_string(want).c_str(), 1);
    EXPECT_EQ(defaultJobs(), want);

    std::string garbage = std::to_string(want) + "abc";
    ::setenv("CODECOMP_JOBS", garbage.c_str(), 1);
    EXPECT_EQ(defaultJobs(), fallback);

    for (const char *bad : {"abc", "-3", "0", ""}) {
        ::setenv("CODECOMP_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), fallback) << "CODECOMP_JOBS=" << bad;
    }

    ::setenv("CODECOMP_JOBS", "9999", 1);
    EXPECT_EQ(defaultJobs(), 256u); // clamped, like setGlobalJobs
    ::unsetenv("CODECOMP_JOBS");
}

TEST(ThreadPool, NestedRunBatchRunsAllTasksThenRethrows)
{
    // The nested-inline path must have the same completion semantics
    // as the pooled path: every task runs, then the first exception is
    // rethrown. It used to stop at the first throwing task.
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    bool innerThrew = false;
    pool.runBatch({[&pool, &completed, &innerThrew] {
        std::vector<std::function<void()>> inner;
        for (int i = 0; i < 8; ++i)
            inner.push_back([&completed, i] {
                if (i == 2)
                    throw std::runtime_error("inner task 2");
                completed++;
            });
        try {
            pool.runBatch(std::move(inner));
        } catch (const std::runtime_error &) {
            innerThrew = true;
        }
    }});
    EXPECT_TRUE(innerThrew);
    EXPECT_EQ(completed.load(), 7);
}

TEST(GlobalPool, ConcurrentAccessIsSerialized)
{
    // Many threads hitting globalPool() while it needs a rebuild: the
    // unique_ptr swap used to be unsynchronized (a data race and a
    // use-after-free under a sanitizer).
    setGlobalJobs(3);
    globalPool();
    setGlobalJobs(4); // the next access must rebuild, exactly once
    std::atomic<int> correct{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&correct] {
            for (int i = 0; i < 200; ++i)
                if (globalPool().threadCount() == 4u)
                    correct++;
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(correct.load(), 8 * 200);
    setGlobalJobs(0);
}

TEST(GlobalPool, ResizeWhileBusyIsCatchableFatal)
{
    // Rebuilding the pool out from under a draining batch would be a
    // use-after-free; it must refuse loudly instead.
    setGlobalJobs(2);
    globalPool();
    EXPECT_THROW(globalPool().parallelFor(
                     4,
                     [](size_t i) {
                         if (i == 0) {
                             setGlobalJobs(3);
                             globalPool();
                         }
                     }),
                 std::runtime_error);
    setGlobalJobs(0);
    EXPECT_GE(globalPool().threadCount(), 1u); // idle: rebuild is fine
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.range(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
        EXPECT_LT(rng.below(8), 8u);
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differ = 0;
    for (int i = 0; i < 50; ++i)
        differ += a.next() != b.next();
    EXPECT_GT(differ, 45);
}

TEST(JsonWriter, ObjectsArraysAndValues)
{
    JsonWriter json;
    json.beginObject();
    json.member("name", "pipeline");
    json.member("count", static_cast<uint64_t>(42));
    json.member("delta", static_cast<int64_t>(-7));
    json.member("ratio", 0.5);
    json.member("ok", true);
    json.key("passes");
    json.beginArray();
    json.value("a");
    json.value("b");
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"pipeline\",\"count\":42,\"delta\":-7,"
              "\"ratio\":0.5,\"ok\":true,\"passes\":[\"a\",\"b\"]}");
}

TEST(JsonWriter, NestedContainersSeparateCorrectly)
{
    JsonWriter json;
    json.beginArray();
    json.beginObject();
    json.member("x", 1);
    json.endObject();
    json.beginObject();
    json.member("y", 2);
    json.endObject();
    json.beginArray();
    json.endArray();
    json.endArray();
    EXPECT_EQ(json.str(), "[{\"x\":1},{\"y\":2},[]]");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape(std::string("nul\x01")), "nul\\u0001");

    JsonWriter json;
    json.beginObject();
    json.member("k\"ey", "v\nal");
    json.endObject();
    EXPECT_EQ(json.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    // JSON has no inf/nan literals; "%g" used to emit them verbatim,
    // producing unparseable documents.
    JsonWriter json;
    json.beginArray();
    json.value(std::numeric_limits<double>::infinity());
    json.value(-std::numeric_limits<double>::infinity());
    json.value(std::numeric_limits<double>::quiet_NaN());
    json.value(1.5);
    json.endArray();
    EXPECT_EQ(json.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, DoublesRoundTripExactly)
{
    // Round-trip precision: parsing the emitted text recovers the
    // exact double (the old %.6g lost up to 11 significant digits).
    const double values[] = {0.1,
                             1.0 / 3.0,
                             6.62607015e-34,
                             1e300,
                             123456789.123456789,
                             -2.2250738585072014e-308};
    for (double v : values) {
        JsonWriter json;
        json.value(v);
        EXPECT_EQ(std::strtod(json.str().c_str(), nullptr), v)
            << json.str();
    }
    // Values that fit in fewer digits stay short.
    JsonWriter json;
    json.value(0.5);
    EXPECT_EQ(json.str(), "0.5");
}

TEST(JsonWriter, RawSplicesSerializedValues)
{
    JsonWriter inner;
    inner.beginObject();
    inner.member("x", 1);
    inner.endObject();

    JsonWriter json;
    json.beginObject();
    json.member("a", true);
    json.key("inner");
    json.raw(inner.str());
    json.member("b", 2);
    json.endObject();
    EXPECT_EQ(json.str(), "{\"a\":true,\"inner\":{\"x\":1},\"b\":2}");
}


// ---------------- sealed container ----------------

constexpr uint32_t kTestMagic = 0x43435453; // "CCTS"
constexpr uint32_t kTestVersion = 5;

std::vector<uint8_t>
samplePayload()
{
    std::vector<uint8_t> payload(37);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 7 + 1);
    return payload;
}

Result<std::vector<uint8_t>>
openTest(const std::vector<uint8_t> &bytes)
{
    return openSealed(bytes, kTestMagic, kTestVersion, "test blob");
}

TEST(SealedContainer, RoundTrips)
{
    for (const std::vector<uint8_t> &payload :
         {std::vector<uint8_t>{}, samplePayload()}) {
        std::vector<uint8_t> sealed =
            sealPayload(kTestMagic, kTestVersion, payload);
        EXPECT_EQ(sealed.size(), 20 + payload.size());
        Result<std::vector<uint8_t>> opened = openTest(sealed);
        ASSERT_TRUE(opened.ok()) << opened.error().message();
        EXPECT_EQ(opened.value(), payload);
    }
}

TEST(SealedContainer, RejectsEverySingleBitFlip)
{
    std::vector<uint8_t> good =
        sealPayload(kTestMagic, kTestVersion, samplePayload());
    for (size_t pos = 0; pos < good.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> bad = good;
            bad[pos] ^= static_cast<uint8_t>(1u << bit);
            Result<std::vector<uint8_t>> opened = openTest(bad);
            ASSERT_FALSE(opened.ok()) << "byte " << pos << " bit " << bit;
            LoadStatus status = opened.error().status;
            if (pos < 4)
                EXPECT_EQ(status, LoadStatus::BadMagic) << pos;
            else if (pos < 8)
                EXPECT_EQ(status, LoadStatus::BadVersion) << pos;
            else if (pos < 16)
                EXPECT_EQ(status, LoadStatus::BadChecksum) << pos;
            else if (pos < 20) // the payload length: too long or short
                EXPECT_TRUE(status == LoadStatus::Truncated ||
                            status == LoadStatus::TrailingBytes)
                    << pos << " " << loadStatusName(status);
            else
                EXPECT_EQ(status, LoadStatus::BadChecksum) << pos;
        }
    }
}

TEST(SealedContainer, RejectsEveryTruncationAndATrailingByte)
{
    std::vector<uint8_t> good =
        sealPayload(kTestMagic, kTestVersion, samplePayload());
    for (size_t len = 0; len < good.size(); ++len) {
        std::vector<uint8_t> cut(good.begin(),
                                 good.begin() + static_cast<long>(len));
        Result<std::vector<uint8_t>> opened = openTest(cut);
        ASSERT_FALSE(opened.ok()) << len;
        EXPECT_EQ(opened.error().status, LoadStatus::Truncated) << len;
    }
    good.push_back(0);
    Result<std::vector<uint8_t>> opened = openTest(good);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.error().status, LoadStatus::TrailingBytes);
}

TEST(SealedContainer, ErrorsNameTheFileKind)
{
    std::vector<uint8_t> sealed =
        sealPayload(kTestMagic, kTestVersion + 1, samplePayload());
    Result<std::vector<uint8_t>> skewed = openTest(sealed);
    ASSERT_FALSE(skewed.ok());
    EXPECT_EQ(skewed.error().message(),
              "bad-version in test blob header at byte 4: unsupported "
              "test blob version 6 (expected 5)");
    Result<std::vector<uint8_t>> foreign =
        openSealed(sealed, kTestMagic + 1, kTestVersion, "test blob");
    ASSERT_FALSE(foreign.ok());
    EXPECT_EQ(foreign.error().message(),
              "bad-magic in test blob header at byte 0: not a test blob "
              "file");
}

// ---------------- crash-safe write ----------------

/** A fresh, empty directory under the system temp dir, removed at the
 *  end of the test. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("cc-support-" + tag + "-" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::filesystem::path &path() const { return path_; }

    /** The names of the directory's entries, sorted. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> names;
        for (const auto &entry : std::filesystem::directory_iterator(path_))
            names.push_back(entry.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    }

  private:
    std::filesystem::path path_;
};

TEST(WriteFileAtomic, ReplacesTheFileAndLeavesNoTempBehind)
{
    TempDir dir("atomic");
    std::string path = (dir.path() / "out.bin").string();
    EXPECT_FALSE(writeFileAtomic(path, {1, 2, 3}));
    EXPECT_FALSE(writeFileAtomic(path, {4, 5}));
    EXPECT_EQ(readFile(path), (std::vector<uint8_t>{4, 5}));
    EXPECT_EQ(dir.names(), std::vector<std::string>{"out.bin"});
}

TEST(WriteFileAtomic, MissingDirectoryIsAnIoErrorAndCreatesNothing)
{
    TempDir dir("atomic-missing");
    std::string path = (dir.path() / "missing" / "out.bin").string();
    std::optional<LoadError> error = writeFileAtomic(path, {1, 2, 3});
    ASSERT_TRUE(error);
    EXPECT_EQ(error->status, LoadStatus::IoError);
    EXPECT_TRUE(dir.names().empty());
}

TEST(WriteFileAtomic, FailedRenameRemovesTheTempFile)
{
    // A directory already holds the name: the temp file is written,
    // the rename over the directory fails, and the temp file goes.
    TempDir dir("atomic-rename");
    std::filesystem::create_directory(dir.path() / "taken");
    writeFile((dir.path() / "taken" / "keep").string(), {7});
    std::optional<LoadError> error =
        writeFileAtomic((dir.path() / "taken").string(), {1, 2, 3});
    ASSERT_TRUE(error);
    EXPECT_EQ(error->status, LoadStatus::IoError);
    EXPECT_EQ(dir.names(), std::vector<std::string>{"taken"});
    EXPECT_EQ(readFile((dir.path() / "taken" / "keep").string()),
              std::vector<uint8_t>{7});
}

} // namespace
