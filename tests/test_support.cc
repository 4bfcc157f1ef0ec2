/**
 * @file
 * Tests for the support substrate: nibble/bit stream writers and
 * readers (the carrier of every compressed program), the scoped
 * parallelFor behind every parallel stage, the deterministic RNG, the JSON writer
 * used for pipeline statistics and benchmark output, and the sealed
 * container and crash-safe write behind every file the repo reads
 * back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

// ---------------- parallel stages ----------------

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    for (unsigned jobs : {1u, 2u, 4u}) {
        setGlobalJobs(jobs);
        constexpr size_t n = 10000;
        std::vector<std::atomic<int>> visits(n);
        parallelFor(n, [&visits](size_t i) { visits[i]++; });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(visits[i].load(), 1) << "jobs " << jobs
                                           << " index " << i;
        parallelFor(0, [](size_t) { FAIL() << "empty stage ran a body"; });
    }
    setGlobalJobs(0);
}

TEST(ThreadPool, PropagatesFirstException)
{
    setGlobalJobs(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(parallelFor(100,
                             [&completed](size_t i) {
                                 if (i == 37)
                                     throw std::runtime_error("index 37");
                                 completed++;
                             }),
                 std::runtime_error);
    // Every other index in the stage still ran to completion.
    EXPECT_EQ(completed.load(), 99);
    setGlobalJobs(0);
}

TEST(ThreadPool, PoolIsReusableAfterException)
{
    setGlobalJobs(2);
    EXPECT_THROW(
        parallelFor(8, [](size_t) { throw std::runtime_error("x"); }),
        std::runtime_error);
    std::atomic<int> count{0};
    parallelFor(64, [&count](size_t) { count++; });
    EXPECT_EQ(count.load(), 64);
    setGlobalJobs(0);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    // A parallel stage may itself invoke a parallel stage (suite
    // fan-out -> per-program work); the inner one runs inline on the
    // thread of the body that started it.
    setGlobalJobs(4);
    std::atomic<int> inner{0};
    std::atomic<int> elsewhere{0};
    parallelFor(8, [&](size_t) {
        std::thread::id outer = std::this_thread::get_id();
        parallelFor(16, [&](size_t) {
            inner++;
            if (std::this_thread::get_id() != outer)
                elsewhere++;
        });
    });
    EXPECT_EQ(inner.load(), 8 * 16);
    EXPECT_EQ(elsewhere.load(), 0);
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
    // setGlobalJobs overrides the hardware width, clamped to 256; 0
    // restores the hardware width, which is at least 1.
    setGlobalJobs(3);
    EXPECT_EQ(globalJobs(), 3u);
    setGlobalJobs(9999);
    EXPECT_EQ(globalJobs(), 256u);
    setGlobalJobs(0);
    EXPECT_GE(globalJobs(), 1u);
}

TEST(ThreadPool, NestedRunBatchRunsAllTasksThenRethrows)
{
    // A nested stage, which runs inline, has the same completion
    // semantics as an outer one: every index runs, then the first
    // exception is rethrown.
    setGlobalJobs(2);
    std::atomic<int> completed{0};
    std::atomic<int> innerThrew{0};
    parallelFor(2, [&](size_t) {
        try {
            parallelFor(8, [&completed](size_t i) {
                if (i == 2)
                    throw std::runtime_error("inner index 2");
                completed++;
            });
        } catch (const std::runtime_error &) {
            innerThrew++;
        }
    });
    EXPECT_EQ(innerThrew.load(), 2);
    EXPECT_EQ(completed.load(), 2 * 7);
    setGlobalJobs(0);
}

TEST(ThreadPool, NeverRunsMoreBodiesThanTheWidth)
{
    setGlobalJobs(3);
    std::atomic<unsigned> running{0};
    std::atomic<unsigned> highWater{0};
    parallelFor(64, [&](size_t) {
        unsigned now = ++running;
        unsigned seen = highWater;
        while (now > seen && !highWater.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        --running;
    });
    EXPECT_GE(highWater.load(), 1u);
    EXPECT_LE(highWater.load(), globalJobs());
    setGlobalJobs(0);
}

TEST(ThreadPool, StagesOnUnrelatedThreadsEachRunEveryIndex)
{
    // Stages share no state but the width, which may change while
    // they start: each still visits every one of its indices once.
    std::vector<std::vector<std::atomic<int>>> visits(4);
    std::vector<std::thread> threads;
    for (std::vector<std::atomic<int>> &mine : visits) {
        mine = std::vector<std::atomic<int>>(200);
        threads.emplace_back([&mine] {
            for (int round = 0; round < 20; ++round)
                parallelFor(mine.size(), [&mine](size_t i) { mine[i]++; });
        });
    }
    for (unsigned jobs = 1; jobs <= 40; ++jobs)
        setGlobalJobs(jobs % 4 + 1);
    for (std::thread &thread : threads)
        thread.join();
    for (const std::vector<std::atomic<int>> &mine : visits)
        for (const std::atomic<int> &count : mine)
            ASSERT_EQ(count.load(), 20);
    setGlobalJobs(0);
}

TEST(ThreadPool, ContiguousRunsStayOnOneThread)
{
    // 64 indices at width 2 are 8 runs of 8: a farm queue's 8 jobs of
    // one program run on one thread, one after another.
    setGlobalJobs(2);
    std::vector<std::thread::id> ran(64);
    parallelFor(ran.size(),
                [&ran](size_t i) { ran[i] = std::this_thread::get_id(); });
    for (size_t i = 0; i < ran.size(); ++i)
        ASSERT_EQ(ran[i], ran[i / 8 * 8]) << "index " << i;
    setGlobalJobs(0);
}

TEST(ThreadPool, WidthOneRunsEveryBodyOnTheCaller)
{
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    auto body = [&](size_t) {
        if (std::this_thread::get_id() != caller)
            elsewhere++;
    };
    setGlobalJobs(1);
    parallelFor(100, body);
    setGlobalJobs(4);
    parallelFor(1, body); // one index starts no thread at any width
    EXPECT_EQ(elsewhere.load(), 0);
    setGlobalJobs(0);
}

TEST(ThreadPool, SetGlobalJobsInsideAStageChangesOnlyLaterStages)
{
    // A width-1 stage that raises the width keeps running on the
    // caller alone; the next stage starts threads at the new width.
    // Each body of that stage waits (bounded) until a second thread
    // has entered the stage, which only a started thread can do.
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    setGlobalJobs(1);
    parallelFor(16, [&](size_t i) {
        if (i == 0)
            setGlobalJobs(4);
        if (std::this_thread::get_id() != caller)
            elsewhere++;
    });
    EXPECT_EQ(elsewhere.load(), 0);
    EXPECT_EQ(globalJobs(), 4u);

    std::atomic<int> entered{0};
    parallelFor(4, [&](size_t) {
        entered++;
        if (std::this_thread::get_id() != caller)
            elsewhere++;
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (entered < 2 && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    });
    EXPECT_GT(elsewhere.load(), 0);
    setGlobalJobs(0);
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
