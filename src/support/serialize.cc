#include "support/serialize.hh"

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <unistd.h>

namespace codecomp {

const char *
loadStatusName(LoadStatus status)
{
    switch (status) {
      case LoadStatus::Ok:
        return "ok";
      case LoadStatus::IoError:
        return "io-error";
      case LoadStatus::Truncated:
        return "truncated";
      case LoadStatus::BadMagic:
        return "bad-magic";
      case LoadStatus::BadVersion:
        return "bad-version";
      case LoadStatus::BadChecksum:
        return "bad-checksum";
      case LoadStatus::BadValue:
        return "bad-value";
      case LoadStatus::TrailingBytes:
        return "trailing-bytes";
    }
    return "unknown";
}

std::string
LoadError::message() const
{
    std::string text = loadStatusName(status);
    if (!context.empty())
        text += " in " + context;
    if (status != LoadStatus::IoError)
        text += " at byte " + std::to_string(offset);
    if (!detail.empty())
        text += ": " + detail;
    return text;
}

uint64_t
fnv1a64(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i)
        h = (h ^ data[i]) * 0x100000001b3ull;
    return h;
}

namespace {

LoadError
ioError(const std::string &path, const char *what)
{
    return LoadError{LoadStatus::IoError, 0, "'" + path + "'",
                     std::string(what) + ": " + std::strerror(errno)};
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

} // namespace

std::vector<uint8_t>
sealPayload(uint32_t magic, uint32_t version,
            const std::vector<uint8_t> &payload)
{
    ByteSink sink;
    sink.put32(magic);
    sink.put32(version);
    sink.put64(fnv1a64(payload));
    sink.putBlob(payload);
    return sink.take();
}

Result<std::vector<uint8_t>>
openSealed(const std::vector<uint8_t> &bytes, uint32_t magic,
           uint32_t version, const char *what)
{
    ByteSource source(bytes);
    source.setContext(std::string(what) + " header");
    try {
        if (source.get32() != magic)
            return LoadError{LoadStatus::BadMagic, 0, source.context(),
                             std::string("not a ") + what + " file"};
        uint32_t stored_version = source.get32();
        if (stored_version != version)
            return LoadError{LoadStatus::BadVersion, 4, source.context(),
                             "unsupported " + std::string(what) +
                                 " version " +
                                 std::to_string(stored_version) +
                                 " (expected " + std::to_string(version) +
                                 ")"};
        uint64_t stored = source.get64();
        std::vector<uint8_t> payload = source.getBlob();
        if (!source.atEnd())
            return LoadError{LoadStatus::TrailingBytes, source.pos(),
                             source.context(),
                             std::to_string(source.remaining()) +
                                 " byte(s) after the payload"};
        uint64_t computed = fnv1a64(payload);
        if (computed != stored)
            return LoadError{LoadStatus::BadChecksum, 8, source.context(),
                             "stored " + hex64(stored) + " != computed " +
                                 hex64(computed)};
        return payload;
    } catch (const LoadFailure &failure) {
        return failure.error();
    }
}

Result<std::vector<uint8_t>>
tryReadFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return ioError(path, "cannot open for reading");
    long size = -1;
    if (std::fseek(file, 0, SEEK_END) == 0)
        size = std::ftell(file);
    if (size < 0 || std::fseek(file, 0, SEEK_SET) != 0) {
        LoadError error = ioError(path, "cannot determine file size");
        std::fclose(file);
        return error;
    }
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    size_t read = bytes.empty()
                      ? 0
                      : std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (read != bytes.size())
        return LoadError{LoadStatus::IoError, read, "'" + path + "'",
                         "short read: got " + std::to_string(read) +
                             " of " + std::to_string(bytes.size()) +
                             " bytes"};
    return bytes;
}

std::optional<LoadError>
tryWriteFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return ioError(path, "cannot open for writing");
    size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
    if (std::fclose(file) != 0)
        return ioError(path, "cannot close after writing");
    if (written != bytes.size())
        return LoadError{LoadStatus::IoError, written, "'" + path + "'",
                         "short write: wrote " + std::to_string(written) +
                             " of " + std::to_string(bytes.size()) +
                             " bytes"};
    return std::nullopt;
}

std::optional<LoadError>
writeFileAtomic(const std::string &path, const std::vector<uint8_t> &bytes)
{
    static std::atomic<uint64_t> calls{0};
    std::string temp = path + ".tmp" + std::to_string(::getpid()) + "." +
                       std::to_string(calls.fetch_add(1));
    std::optional<LoadError> error = tryWriteFile(temp, bytes);
    if (!error && std::rename(temp.c_str(), path.c_str()) != 0)
        error = ioError(path, "cannot rename into place");
    if (error)
        std::remove(temp.c_str());
    return error;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    Result<std::vector<uint8_t>> result = tryReadFile(path);
    if (!result.ok())
        throw LoadFailure(result.error());
    return result.take();
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    if (std::optional<LoadError> error = tryWriteFile(path, bytes))
        throw LoadFailure(*error);
}

} // namespace codecomp
