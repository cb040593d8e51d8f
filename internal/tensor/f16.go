package tensor

// IEEE 754 binary16 ("half", f16) encode/decode for the mixed-precision
// storage tier (DESIGN.md §13). f16 is a storage-of-record format only: suite
// weights are serialized as 16-bit payloads and widened into f32 panels (or
// the float64 reference) at load time — nothing computes in half precision.
//
// Encoding rounds to nearest, ties to even, in a single rounding step from
// the float64 bit pattern (never via an intermediate float32, which could
// double-round). Subnormals, ±0, overflow-to-Inf and NaN are handled per the
// standard; NaN payloads collapse to the canonical quiet NaN 0x7e00 so the
// encoder is a pure function of the value class, not of payload bits.

import "math"

const (
	f16SignMask  = 0x8000
	f16ExpMask   = 0x7c00
	f16FracMask  = 0x03ff
	f16Inf       = 0x7c00
	f16NaN       = 0x7e00 // canonical quiet NaN
	f16FracBits  = 10
	f16ExpBias   = 15
	f16MaxExp    = 31
	f64FracBits  = 52
	f64ExpBias   = 1023
	f64ExpSpec   = 0x7ff
	f64FracMask  = 1<<f64FracBits - 1
	f16NormShift = f64FracBits - f16FracBits // 42: f64 frac → f16 frac
)

// F16Bits encodes x as IEEE binary16 with round-to-nearest-even, rounding
// once directly from the float64 significand. Values above the f16 range
// become ±Inf; values below the smallest subnormal round to ±0; every NaN
// collapses to the canonical quiet NaN 0x7e00 (sign preserved).
//
//mpgraph:noalloc
func F16Bits(x float64) uint16 {
	b := math.Float64bits(x)
	sign := uint16(b>>48) & f16SignMask
	exp := int(b>>f64FracBits) & f64ExpSpec
	frac := b & f64FracMask

	if exp == f64ExpSpec { // Inf or NaN
		if frac != 0 {
			return sign | f16NaN
		}
		return sign | f16Inf
	}
	if exp == 0 {
		// ±0, or an f64 subnormal (< 2^-1022) — more than 10^300 below the
		// smallest f16 subnormal, so it rounds to signed zero either way.
		return sign
	}

	e := exp - f64ExpBias // unbiased exponent, value = 1.frac × 2^e
	if e > 15 {
		return sign | f16Inf // ≥ 2^16: past the largest finite half
	}

	sig := frac | 1<<f64FracBits // 53-bit significand with implicit bit
	shift := f16NormShift
	if e < -14 {
		// Subnormal target: shift the extra exponent deficit into the
		// significand. Beyond the round bit of the smallest subnormal
		// everything is sticky; cap the shift so the uint64 shift stays
		// defined (q and the half-comparison below are already exact there).
		shift += -14 - e
		if shift > 63 {
			shift = 63
		}
	}
	q := sig >> shift
	rem := sig & (1<<shift - 1)
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && q&1 == 1) {
		q++
	}

	if e >= -14 {
		// Normal: q ∈ [2^10, 2^11]; 2^11 means rounding carried into the
		// next binade (possibly overflowing to Inf at the top).
		be := e + f16ExpBias
		if q == 1<<(f16FracBits+1) {
			q >>= 1
			be++
		}
		if be >= f16MaxExp {
			return sign | f16Inf
		}
		return sign | uint16(be)<<f16FracBits | uint16(q)&f16FracMask
	}
	// Subnormal: q ∈ [0, 2^10]; 2^10 is the smallest normal (exp field 1,
	// fraction 0), which the plain OR below encodes for free.
	return sign | uint16(q)
}

// F16Float32 widens an f16 bit pattern to float32. Every finite half is
// exactly representable, so widening is lossless; quiet-NaN bit 9 maps onto
// the float32 quiet bit.
//
//mpgraph:noalloc
func F16Float32(h uint16) float32 {
	sign := uint32(h&f16SignMask) << 16
	exp := int(h>>f16FracBits) & 0x1f
	frac := uint32(h & f16FracMask)
	switch {
	case exp == 0x1f: // Inf / NaN
		return math.Float32frombits(sign | 0x7f800000 | frac<<13)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal half = frac × 2^-24, a normal float32.
		v := float32(frac) * 0x1p-24
		if sign != 0 {
			return -v
		}
		return v
	default:
		return math.Float32frombits(sign | uint32(exp-f16ExpBias+127)<<23 | frac<<13)
	}
}

// F16Float64 widens an f16 bit pattern to float64 (lossless; see F16Float32).
//
//mpgraph:noalloc
func F16Float64(h uint16) float64 {
	sign := uint64(h&f16SignMask) << 48
	exp := int(h>>f16FracBits) & 0x1f
	frac := uint64(h & f16FracMask)
	switch {
	case exp == 0x1f:
		return math.Float64frombits(sign | uint64(f64ExpSpec)<<f64FracBits | frac<<f16NormShift)
	case exp == 0:
		if frac == 0 {
			return math.Float64frombits(sign)
		}
		v := float64(frac) * 0x1p-24
		if sign != 0 {
			return -v
		}
		return v
	default:
		return math.Float64frombits(sign | uint64(exp-f16ExpBias+f64ExpBias)<<f64FracBits | frac<<f16NormShift)
	}
}

// EncodeF16 rounds src into dst as binary16 payloads (dst must be at least as
// long as src). Returns the number of values written.
//
//mpgraph:noalloc
func EncodeF16(dst []uint16, src []float64) int {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = F16Bits(v)
	}
	return len(src)
}

// WidenF16 decodes binary16 payloads into float64 (dst at least as long as
// src). The inverse of EncodeF16 up to the encoder's rounding.
//
//mpgraph:noalloc
func WidenF16(dst []float64, src []uint16) int {
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = F16Float64(h)
	}
	return len(src)
}
