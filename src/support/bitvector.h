// Arbitrary-width two's-complement bit vector arithmetic.
//
// Hardware synthesized from C-like languages manipulates bit-precise values
// (the paper: "Bit vectors are natural in hardware, yet C only supports four
// sizes").  BitVector is the numeric type used throughout c2h: the frontend's
// int<N>/uint<N> types, the reference interpreter, constant folding, and the
// RTL/dataflow simulators all compute with it, so a 13-bit multiply behaves
// identically in every layer.
//
// A BitVector has a fixed width (1..kMaxWidth bits); signedness is not a
// property of the value but of the operation (sdiv vs udiv, slt vs ult),
// mirroring two's-complement hardware.
//
// Values of width <= 64 are stored inline (no heap allocation); wider values
// use a heap word array.  Simulators hot-loop over narrow values, so the
// inline representation plus the word()/setWord() accessors form the
// word-level fast path used by the compiled vsim backend.
#ifndef C2H_SUPPORT_BITVECTOR_H
#define C2H_SUPPORT_BITVECTOR_H

#include <cstdint>
#include <string>

namespace c2h {

class BitVector {
public:
  static constexpr unsigned kMaxWidth = 4096;

  // Zero value of the given width.  Width must be in [1, kMaxWidth].
  explicit BitVector(unsigned width = 1);
  // Value from a host integer, truncated/zero-extended to `width`.
  BitVector(unsigned width, std::uint64_t value);
  BitVector(const BitVector &rhs);
  BitVector(BitVector &&rhs) noexcept;
  BitVector &operator=(const BitVector &rhs);
  BitVector &operator=(BitVector &&rhs) noexcept;
  ~BitVector();
  // Signed construction: sign-extends `value` into `width` bits.
  static BitVector fromInt(unsigned width, std::int64_t value);
  // Parse a decimal (optionally signed) or 0x-hex literal into `width` bits.
  // Returns all-zeros and sets *ok=false (if provided) on malformed input.
  static BitVector fromString(unsigned width, const std::string &text,
                              bool *ok = nullptr);
  // All-ones value of the given width.
  static BitVector allOnes(unsigned width);

  unsigned width() const { return width_; }

  // -- Word-level fast path ---------------------------------------------
  // True when the whole value lives in one machine word (width <= 64);
  // such values are stored inline with no heap allocation.
  bool isInline() const { return width_ <= 64; }
  // Mask selecting the valid bits of a width-`w` value (w in [1, 64]).
  static std::uint64_t wordMask(unsigned w) {
    return w >= 64 ? ~0ull : (1ull << w) - 1;
  }
  // Low word of the value (the entire value when isInline()).
  std::uint64_t word() const { return isInline() ? inline_ : heap_[0]; }
  // Overwrite an inline value in place, masking `v` to width().  Only
  // valid when isInline(); this is the VM's zero-allocation store.
  void setWord(std::uint64_t v) { inline_ = v & wordMask(width_); }
  // Become the width-`w` value `v` (w in [1, 64]; `v` is masked to w
  // bits), freeing a wide value's words: the zero-allocation store of a
  // register whose width may change.
  void assignWord(unsigned w, std::uint64_t v) {
    if (!isInline())
      delete[] heap_;
    width_ = w;
    inline_ = v & wordMask(w);
  }

  // -- Observers --------------------------------------------------------
  bool isZero() const;
  bool isAllOnes() const;
  // Bit `i` (0 = LSB).  i must be < width().
  bool bit(unsigned i) const;
  bool signBit() const { return bit(width_ - 1); }
  // Low 64 bits, zero-extended.
  std::uint64_t toUint64() const { return word(); }
  // Value interpreted as signed, truncated to 64 bits (sign-extended when
  // width < 64).
  std::int64_t toInt64() const;
  // Number of significant bits when interpreted as unsigned (0 for zero).
  unsigned activeBits() const;
  unsigned popcount() const;

  std::string toStringUnsigned() const; // decimal
  std::string toStringSigned() const;   // decimal, two's-complement
  std::string toStringHex() const;      // 0x..., no leading zeros

  // -- Width changes ----------------------------------------------------
  BitVector trunc(unsigned newWidth) const;
  BitVector zext(unsigned newWidth) const;
  BitVector sext(unsigned newWidth) const;
  // zext/sext/trunc as appropriate to reach newWidth.
  BitVector resize(unsigned newWidth, bool isSigned) const;

  // -- Arithmetic (operands must have equal widths; result same width) ---
  BitVector add(const BitVector &rhs) const;
  BitVector sub(const BitVector &rhs) const;
  BitVector mul(const BitVector &rhs) const;
  BitVector udiv(const BitVector &rhs) const; // x/0 yields all-ones
  BitVector urem(const BitVector &rhs) const; // x%0 yields x
  BitVector sdiv(const BitVector &rhs) const; // truncating, like C
  BitVector srem(const BitVector &rhs) const;
  BitVector neg() const;

  // -- Bitwise ----------------------------------------------------------
  BitVector bitAnd(const BitVector &rhs) const;
  BitVector bitOr(const BitVector &rhs) const;
  BitVector bitXor(const BitVector &rhs) const;
  BitVector bitNot() const;

  // Shift amounts >= width yield zero (or all-ones/sign for ashr).
  BitVector shl(unsigned amount) const;
  BitVector lshr(unsigned amount) const;
  BitVector ashr(unsigned amount) const;

  // -- Comparisons ------------------------------------------------------
  bool eq(const BitVector &rhs) const;
  bool ult(const BitVector &rhs) const;
  bool ule(const BitVector &rhs) const;
  bool slt(const BitVector &rhs) const;
  bool sle(const BitVector &rhs) const;

  bool operator==(const BitVector &rhs) const { return eq(rhs); }
  bool operator!=(const BitVector &rhs) const { return !eq(rhs); }

  // Concatenate: `this` becomes the high part, `low` the low part.
  BitVector concat(const BitVector &low) const;
  // Extract bits [lo, lo+len).  Must be in range.
  BitVector extract(unsigned lo, unsigned len) const;

  // Stable hash usable in unordered containers.
  std::size_t hash() const;

private:
  void clearUnusedBits();
  static unsigned wordsFor(unsigned width) { return (width + 63) / 64; }
  unsigned numWords() const { return wordsFor(width_); }
  std::uint64_t *words() { return isInline() ? &inline_ : heap_; }
  const std::uint64_t *words() const { return isInline() ? &inline_ : heap_; }

  unsigned width_;
  union {
    std::uint64_t inline_; // the value, when width_ <= 64
    std::uint64_t *heap_;  // wordsFor(width_) little-endian words otherwise
  };
};

struct BitVectorHash {
  std::size_t operator()(const BitVector &v) const { return v.hash(); }
};

} // namespace c2h

#endif // C2H_SUPPORT_BITVECTOR_H
