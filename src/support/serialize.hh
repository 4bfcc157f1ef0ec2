/**
 * @file
 * Minimal big-endian binary serialization helpers used by the Program
 * and CompressedImage file formats (the on-disk interchange of the
 * minicc / ccompress / ccrun command-line tools).
 *
 * Deserialization treats its input as untrusted: every structural
 * problem surfaces as a typed LoadError (status code, byte offset,
 * context) rather than a process abort. ByteSource throws LoadFailure
 * (a std::runtime_error carrying the LoadError) on truncation, so
 * legacy callers that catch std::runtime_error keep working, while
 * hardened callers use the Result-returning entry points.
 */

#ifndef CODECOMP_SUPPORT_SERIALIZE_HH
#define CODECOMP_SUPPORT_SERIALIZE_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace codecomp {

/** What went wrong while loading untrusted bytes. */
enum class LoadStatus : uint8_t {
    Ok,
    IoError,       //!< the file could not be read or written
    Truncated,     //!< input ended before a declared field
    BadMagic,      //!< not the expected file type
    BadVersion,    //!< unsupported format version
    BadChecksum,   //!< payload checksum mismatch (bytes corrupted)
    BadValue,      //!< a field value violates a structural invariant
    TrailingBytes, //!< well-formed payload followed by extra bytes
};

const char *loadStatusName(LoadStatus status);

/** One typed deserialization/validation failure. */
struct LoadError
{
    LoadStatus status = LoadStatus::Ok;
    size_t offset = 0;   //!< byte offset in the input where it surfaced
    std::string context; //!< what was being parsed (field or phase)
    std::string detail;  //!< specifics: values, limits, paths

    /** One-line human-readable rendering. */
    std::string message() const;
};

/** LoadError as a throwable; derives std::runtime_error so existing
 *  catch sites (tools, tests) see it without modification. */
class LoadFailure : public std::runtime_error
{
  public:
    explicit LoadFailure(LoadError error)
        : std::runtime_error(error.message()), error_(std::move(error))
    {}

    const LoadError &error() const { return error_; }

  private:
    LoadError error_;
};

/**
 * Value-or-LoadError result of a hardened loader. Deliberately tiny:
 * implicit construction from either side, and value() panics when
 * consulted on an error (callers must check ok() first).
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}
    Result(LoadError error) : error_(std::move(error))
    {
        CC_ASSERT(error_.status != LoadStatus::Ok,
                  "Result error must carry a failure status");
    }

    bool ok() const { return value_.has_value(); }

    const T &
    value() const
    {
        CC_ASSERT(ok(), "Result::value() on error: ", error_.message());
        return *value_;
    }

    T
    take()
    {
        CC_ASSERT(ok(), "Result::take() on error: ", error_.message());
        return std::move(*value_);
    }

    const LoadError &
    error() const
    {
        CC_ASSERT(!ok(), "Result::error() on success");
        return error_;
    }

  private:
    std::optional<T> value_;
    LoadError error_;
};

/** FNV-1a over @p size bytes; the whole-payload checksum of the v2
 *  file formats. */
uint64_t fnv1a64(const uint8_t *data, size_t size);

inline uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    return fnv1a64(bytes.data(), bytes.size());
}

/** Append-only big-endian byte sink. */
class ByteSink
{
  public:
    void put8(uint8_t value) { bytes_.push_back(value); }

    void
    put16(uint16_t value)
    {
        put8(static_cast<uint8_t>(value >> 8));
        put8(static_cast<uint8_t>(value));
    }

    void
    put32(uint32_t value)
    {
        put8(static_cast<uint8_t>(value >> 24));
        put8(static_cast<uint8_t>(value >> 16));
        put8(static_cast<uint8_t>(value >> 8));
        put8(static_cast<uint8_t>(value));
    }

    void
    put64(uint64_t value)
    {
        put32(static_cast<uint32_t>(value >> 32));
        put32(static_cast<uint32_t>(value));
    }

    void
    putString(const std::string &value)
    {
        put32(static_cast<uint32_t>(value.size()));
        bytes_.insert(bytes_.end(), value.begin(), value.end());
    }

    void
    putBlob(const std::vector<uint8_t> &value)
    {
        put32(static_cast<uint32_t>(value.size()));
        bytes_.insert(bytes_.end(), value.begin(), value.end());
    }

    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Sequential big-endian byte source over untrusted input. Reading past
 * the end throws LoadFailure{Truncated} carrying the byte offset and
 * the current context string (set by the caller to name the field or
 * section being parsed, so diagnostics say *what* was cut off).
 */
class ByteSource
{
  public:
    explicit ByteSource(const std::vector<uint8_t> &bytes)
        : bytes_(bytes)
    {}

    /** Name the region being parsed; reported in truncation errors. */
    void setContext(std::string context) { context_ = std::move(context); }
    const std::string &context() const { return context_; }

    uint8_t
    get8()
    {
        if (pos_ >= bytes_.size())
            failTruncated("input ended inside a 1-byte field");
        return bytes_[pos_++];
    }

    uint32_t
    get32()
    {
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value = (value << 8) | get8();
        return value;
    }

    uint64_t
    get64()
    {
        uint64_t value = static_cast<uint64_t>(get32()) << 32;
        return value | get32();
    }

    std::string
    getString()
    {
        uint32_t size = get32();
        if (size > bytes_.size() - pos_)
            failTruncated("declared string length " +
                          std::to_string(size) + " exceeds remaining " +
                          std::to_string(bytes_.size() - pos_) + " bytes");
        std::string value(bytes_.begin() + static_cast<long>(pos_),
                          bytes_.begin() + static_cast<long>(pos_ + size));
        pos_ += size;
        return value;
    }

    std::vector<uint8_t>
    getBlob()
    {
        uint32_t size = get32();
        if (size > bytes_.size() - pos_)
            failTruncated("declared blob length " + std::to_string(size) +
                          " exceeds remaining " +
                          std::to_string(bytes_.size() - pos_) + " bytes");
        std::vector<uint8_t> value(
            bytes_.begin() + static_cast<long>(pos_),
            bytes_.begin() + static_cast<long>(pos_ + size));
        pos_ += size;
        return value;
    }

    bool atEnd() const { return pos_ == bytes_.size(); }
    size_t pos() const { return pos_; }
    size_t remaining() const { return bytes_.size() - pos_; }

  private:
    [[noreturn]] void
    failTruncated(std::string detail) const
    {
        throw LoadFailure(LoadError{LoadStatus::Truncated, pos_, context_,
                                    std::move(detail)});
    }

    const std::vector<uint8_t> &bytes_;
    size_t pos_ = 0;
    std::string context_;
};

/**
 * @{ The one sealed container of every byte file the repo writes and
 * later trusts (.ccp programs, .cci images, pipeline-cache entries,
 * farm worker results), big-endian:
 *
 *   u32  magic
 *   u32  version
 *   u64  checksum = fnv1a64(payload)
 *   blob payload  (u32 length + bytes)
 *
 * openSealed checks, in order: magic (BadMagic), version (BadVersion),
 * the declared length (Truncated), no bytes after the payload
 * (TrailingBytes) and the checksum (BadChecksum), and returns the
 * payload. @p what names the file kind in every error ("cache entry").
 */
std::vector<uint8_t> sealPayload(uint32_t magic, uint32_t version,
                                 const std::vector<uint8_t> &payload);
Result<std::vector<uint8_t>> openSealed(const std::vector<uint8_t> &bytes,
                                        uint32_t magic, uint32_t version,
                                        const char *what);
/** @} */

/** @{ Hardened whole-file I/O: LoadStatus::IoError results carry the
 *  path and the strerror(errno) text, never abort. */
Result<std::vector<uint8_t>> tryReadFile(const std::string &path);
std::optional<LoadError> tryWriteFile(const std::string &path,
                                      const std::vector<uint8_t> &bytes);
/** @} */

/**
 * Write @p bytes to @p path crash-safely: into a temp file beside it,
 * named uniquely per process and per call, then renamed over @p path.
 * A crash mid-write leaves a stray temp file, never a half-written
 * @p path. On failure the temp file is removed and the IoError
 * returned; @p path is untouched.
 */
std::optional<LoadError> writeFileAtomic(const std::string &path,
                                         const std::vector<uint8_t> &bytes);

/** Read a whole file; throws LoadFailure on I/O errors. */
std::vector<uint8_t> readFile(const std::string &path);

/** Write a whole file; throws LoadFailure on I/O errors. */
void writeFile(const std::string &path, const std::vector<uint8_t> &bytes);

} // namespace codecomp

#endif // CODECOMP_SUPPORT_SERIALIZE_HH
