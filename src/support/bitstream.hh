/**
 * @file
 * Bit- and nibble-granular byte-stream writers and readers.
 *
 * The nibble classes are the substrate for the paper's 4-bit aligned
 * variable-length codeword encoding (Figure 10): compressed programs are
 * sequences of 4-bit units, written most-significant nibble of each byte
 * first (matching the big-endian instruction memory of the target ISA).
 *
 * The bit classes serve the entropy-coding baselines (Huffman / CCRP and
 * LZW), which are not nibble aligned.
 */

#ifndef CODECOMP_SUPPORT_BITSTREAM_HH
#define CODECOMP_SUPPORT_BITSTREAM_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace codecomp {

/**
 * Append-only nibble (4-bit unit) writer. Nibble 0 of byte 0 is the high
 * nibble of the first byte.
 */
class NibbleWriter
{
  public:
    /** Append the low 4 bits of @p value as one nibble. */
    void
    putNibble(uint8_t value)
    {
        CC_ASSERT(value <= 0xf, "nibble out of range");
        if (count_ % 2 == 0) {
            bytes_.push_back(static_cast<uint8_t>(value << 4));
        } else {
            bytes_.back() |= value;
        }
        ++count_;
    }

    /** Append @p n nibbles taken from the low 4n bits, high nibble first. */
    void
    putNibbles(uint32_t value, unsigned n)
    {
        CC_ASSERT(n <= 8, "too many nibbles");
        for (unsigned i = n; i-- > 0;)
            putNibble(static_cast<uint8_t>((value >> (4 * i)) & 0xf));
    }

    /** Append a full 32-bit word as 8 nibbles (big-endian nibble order). */
    void putWord(uint32_t word) { putNibbles(word, 8); }

    /** Number of nibbles written so far. */
    size_t nibbleCount() const { return count_; }

    /** Reserve room for @p nibbles nibbles in all. */
    void reserve(size_t nibbles) { bytes_.reserve((nibbles + 1) / 2); }

    /** Backing bytes; the final byte's low nibble is zero if count is odd. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    /** Move the backing bytes out, leaving the writer empty. */
    std::vector<uint8_t>
    takeBytes()
    {
        std::vector<uint8_t> bytes = std::move(bytes_);
        bytes_.clear();
        count_ = 0;
        return bytes;
    }

    /** Size in bytes, rounding a trailing half-byte up. */
    size_t sizeBytes() const { return bytes_.size(); }

  private:
    std::vector<uint8_t> bytes_;
    size_t count_ = 0;
};

/** Sequential reader over a nibble stream; also supports random seeks. */
class NibbleReader
{
  public:
    /**
     * The nibble count is always explicit. A byte-vector constructor
     * used to assume bytes.size() * 2 nibbles, which silently granted
     * odd-length streams a phantom trailing pad nibble -- and a pad
     * nibble of 0 decodes as a valid rank-0 codeword under
     * Scheme::Nibble. Producers know their exact count
     * (NibbleWriter::nibbleCount(), CompressedImage::textNibbles), so
     * they must pass it.
     */
    NibbleReader(const uint8_t *data, size_t nibble_count)
        : data_(data), count_(nibble_count)
    {}

    /** Read one nibble at the cursor and advance. */
    uint8_t
    getNibble()
    {
        CC_ASSERT(pos_ < count_, "nibble read past end");
        uint8_t byte = data_[pos_ / 2];
        uint8_t value = (pos_ % 2 == 0) ? (byte >> 4) : (byte & 0xf);
        ++pos_;
        return value;
    }

    /** Read @p n nibbles as one value, high nibble first. */
    uint32_t
    getNibbles(unsigned n)
    {
        CC_ASSERT(n <= 8, "too many nibbles");
        uint32_t value = 0;
        for (unsigned i = 0; i < n; ++i)
            value = (value << 4) | getNibble();
        return value;
    }

    uint32_t getWord() { return getNibbles(8); }

    size_t pos() const { return pos_; }
    void seek(size_t nibble_pos) { pos_ = nibble_pos; }
    size_t size() const { return count_; }
    bool atEnd() const { return pos_ >= count_; }

  private:
    const uint8_t *data_;
    size_t count_;
    size_t pos_ = 0;
};

/** Append-only MSB-first bit writer. */
class BitWriter
{
  public:
    void
    putBit(bool bit)
    {
        if (count_ % 8 == 0)
            bytes_.push_back(0);
        if (bit)
            bytes_.back() |= static_cast<uint8_t>(0x80u >> (count_ % 8));
        ++count_;
    }

    /** Append the low @p n bits of @p value, most significant first. */
    void
    putBits(uint32_t value, unsigned n)
    {
        CC_ASSERT(n <= 32, "too many bits");
        for (unsigned i = n; i-- > 0;)
            putBit((value >> i) & 1);
    }

    size_t bitCount() const { return count_; }
    const std::vector<uint8_t> &bytes() const { return bytes_; }
    size_t sizeBytes() const { return bytes_.size(); }

  private:
    std::vector<uint8_t> bytes_;
    size_t count_ = 0;
};

/** Sequential MSB-first bit reader. */
class BitReader
{
  public:
    /**
     * The bit count is always explicit, mirroring NibbleReader: a
     * byte-vector constructor used to assume bytes.size() * 8 bits,
     * silently granting byte-padded streams up to 7 phantom trailing
     * bits that a variable-width decoder can misread as a final code.
     * Producers know their exact count (BitWriter::bitCount(), or a
     * header-carried pad width); they must pass it.
     */
    BitReader(const uint8_t *data, size_t bit_count)
        : data_(data), count_(bit_count)
    {}

    bool
    getBit()
    {
        CC_ASSERT(pos_ < count_, "bit read past end");
        bool bit = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1;
        ++pos_;
        return bit;
    }

    uint32_t
    getBits(unsigned n)
    {
        CC_ASSERT(n <= 32, "too many bits");
        uint32_t value = 0;
        for (unsigned i = 0; i < n; ++i)
            value = (value << 1) | (getBit() ? 1u : 0u);
        return value;
    }

    size_t pos() const { return pos_; }
    size_t size() const { return count_; }
    bool atEnd() const { return pos_ >= count_; }

  private:
    const uint8_t *data_;
    size_t count_;
    size_t pos_ = 0;
};

} // namespace codecomp

#endif // CODECOMP_SUPPORT_BITSTREAM_HH
