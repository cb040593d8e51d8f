package tensor

import (
	"math"
	"sort"
	"testing"
)

// TestF16EdgeCases pins the binary16 encoder/decoder over the edge-case
// table the storage tier's correctness rests on: signed zeros, subnormals at
// both edges, round-to-nearest-even ties, overflow-to-Inf, and NaN payload
// collapse (ISSUE 10 satellite).
func TestF16EdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		bits uint16
	}{
		{"pos-zero", 0.0, 0x0000},
		{"neg-zero", math.Copysign(0, -1), 0x8000},
		{"one", 1.0, 0x3c00},
		{"neg-two", -2.0, 0xc000},
		{"max-normal", 65504, 0x7bff},
		{"just-under-inf-threshold", 65519.99, 0x7bff}, // < 65520 rounds down to max normal
		{"inf-threshold", 65520, 0x7c00},               // ties away? no: 65520 is exactly halfway, even quotient is 0x7c00's mantissa overflow → Inf
		{"overflow", 1e5, 0x7c00},
		{"neg-overflow", -7e4, 0xfc00},
		{"pos-inf", math.Inf(1), 0x7c00},
		{"neg-inf", math.Inf(-1), 0xfc00},
		{"min-normal", 0x1p-14, 0x0400},
		{"max-subnormal", 0x1p-14 - 0x1p-24, 0x03ff},
		{"min-subnormal", 0x1p-24, 0x0001},
		{"neg-min-subnormal", -0x1p-24, 0x8001},
		{"subnormal-mid", 3 * 0x1p-24, 0x0003},
		{"below-min-sub-tie-even", 0x1p-25, 0x0000},            // exactly half the smallest subnormal: ties to even (0)
		{"below-min-sub-above-tie", 0x1p-25 + 0x1p-50, 0x0001}, // just above the tie: rounds up
		{"below-min-sub-under-tie", 0x1p-26, 0x0000},
		{"f64-subnormal", 0x1p-1060, 0x0000},
		{"neg-f64-subnormal", -0x1p-1060, 0x8000},
		// RNE ties in the normal range: 1 + 2^-11 is exactly halfway between
		// 1.0 (even mantissa) and 1+2^-10; 1 + 3*2^-11 is halfway between
		// 1+2^-10 (odd) and 1+2^-9 (even).
		{"tie-to-even-down", 1 + 0x1p-11, 0x3c00},
		{"tie-to-even-up", 1 + 3*0x1p-11, 0x3c02},
		{"above-tie-up", 1 + 0x1p-11 + 0x1p-40, 0x3c01},
		{"neg-tie-to-even-down", -(1 + 0x1p-11), 0xbc00},
		// Rounding carry across a binade: the largest half below 2.0 plus
		// half an ulp rounds up into the next exponent.
		{"carry-into-next-binade", 2 - 0x1p-11 + 0x1p-12, 0x4000},
		{"nan", math.NaN(), 0x7e00},
	}
	for _, tc := range cases {
		got := F16Bits(tc.in)
		if got != tc.bits {
			t.Errorf("%s: F16Bits(%g) = %#04x, want %#04x", tc.name, tc.in, got, tc.bits)
		}
	}
}

// TestF16NaNPayloadCollapse: every NaN payload encodes to the canonical quiet
// NaN, sign preserved.
func TestF16NaNPayloadCollapse(t *testing.T) {
	payloads := []uint64{1, 0xdead, 1 << 51, 1<<52 - 1}
	for _, p := range payloads {
		for _, sign := range []uint64{0, 1 << 63} {
			nan := math.Float64frombits(sign | 0x7ff<<52 | p)
			want := uint16(0x7e00)
			if sign != 0 {
				want |= 0x8000
			}
			if got := F16Bits(nan); got != want {
				t.Fatalf("F16Bits(NaN payload %#x sign %d) = %#04x, want %#04x", p, sign>>63, got, want)
			}
		}
	}
	if !math.IsNaN(F16Float64(0x7e00)) || !math.IsNaN(float64(F16Float32(0xfe00))) {
		t.Fatal("canonical f16 NaN must widen to NaN")
	}
}

// TestF16RoundTripExhaustive: decode is exact, so every one of the 65536 bit
// patterns must survive encode(decode(h)) — with NaNs collapsing to the
// canonical pattern rather than round-tripping their payload.
func TestF16RoundTripExhaustive(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		bits := uint16(h)
		v64 := F16Float64(bits)
		v32 := F16Float32(bits)

		if math.IsNaN(v64) {
			if !math.IsNaN(float64(v32)) {
				t.Fatalf("%#04x: f64 decode NaN but f32 decode %v", bits, v32)
			}
			want := uint16(f16NaN) | bits&f16SignMask
			if got := F16Bits(v64); got != want {
				t.Fatalf("%#04x: NaN re-encode %#04x, want canonical %#04x", bits, got, want)
			}
			continue
		}
		// Exact widening: the two decode targets must agree bit-for-bit.
		if float64(v32) != v64 {
			t.Fatalf("%#04x: f32 decode %g != f64 decode %g", bits, v32, v64)
		}
		if got := F16Bits(v64); got != bits {
			t.Fatalf("%#04x: round trip %#04x (value %g)", bits, got, v64)
		}
	}
}

// TestF16SingleRounding: encoding from float64 must round once. A value that
// would round differently through an intermediate float32 (double rounding)
// pins the direct path: pick x just below an f32-representable f16 tie so
// f64→f32 rounds up to the tie and a second f32→f16 RNE step would round to
// even, while direct f64→f16 correctly rounds down.
func TestF16SingleRounding(t *testing.T) {
	// tie = 1 + 2^-11 (halfway between halves 1.0 and 1+2^-10).
	// x = tie - 2^-40 < tie, so correct RNE(f16) is 1.0... but f64→f32
	// rounds x up to exactly tie (2^-40 is far below f32 precision at 1.0),
	// and f32→f16 then ties-to-even down to 1.0 as well — pick the other
	// side: x = tie + 2^-40 must round UP to 0x3c01; via f32 it would land
	// on the tie and go down to 0x3c00.
	x := 1 + 0x1p-11 + 0x1p-40
	if got := F16Bits(x); got != 0x3c01 {
		t.Fatalf("direct rounding of %x = %#04x, want 0x3c01", math.Float64bits(x), got)
	}
	viaF32 := F16Bits(float64(float32(x)))
	if viaF32 != 0x3c00 {
		t.Fatalf("double-rounding witness broke: via f32 got %#04x", viaF32)
	}
}

// TestF16SliceHelpers covers the bulk encode/widen paths the serializers use.
func TestF16SliceHelpers(t *testing.T) {
	src := []float64{0, -0.5, 1.25, 65504, 1e9, -1e9, 0x1p-24, math.Inf(1)}
	h := make([]uint16, len(src))
	if n := EncodeF16(h, src); n != len(src) {
		t.Fatalf("EncodeF16 wrote %d", n)
	}
	d64 := make([]float64, len(src))
	WidenF16(d64, h)
	for i := range src {
		if got := F16Bits(d64[i]); got != h[i] {
			t.Fatalf("re-encode mismatch at %d", i)
		}
	}
	if d64[4] != math.Inf(1) || d64[5] != math.Inf(-1) {
		t.Fatalf("1e9 must overflow to ±Inf, got %g %g", d64[4], d64[5])
	}
}

// halfValue is the value of the non-negative finite half with bit pattern h,
// from the format's definition rather than the decoder; h = 0x7c00 (+Inf)
// stands at 65536, the next power of two, where the rounding rule puts it.
func halfValue(h int) float64 {
	if h < 0x400 {
		return math.Ldexp(float64(h), -24)
	}
	return math.Ldexp(float64(0x400|h&0x3ff), h>>10-25)
}

// f16Nearest is F16Bits' oracle by search: the nearest of the sorted
// non-negative halves (Inf at 65536), a tie to the even bit pattern, the sign
// kept; every NaN is the canonical 0x7e00 with its sign.
func f16Nearest(x float64) uint16 {
	var sign uint16
	if math.Signbit(x) {
		sign = 0x8000
	}
	if math.IsNaN(x) {
		return sign | 0x7e00
	}
	a := math.Abs(x)
	j := sort.Search(0x7c01, func(h int) bool { return halfValue(h) >= a })
	switch {
	case j == 0x7c01: // past 65536
		return sign | 0x7c00
	case halfValue(j) == a || j == 0:
		return sign | uint16(j)
	}
	// Halves have 11-bit significands, so the midpoint of two neighbours is
	// exact in float64.
	mid := (halfValue(j-1) + halfValue(j)) / 2
	if a < mid || a == mid && (j-1)%2 == 0 {
		return sign | uint16(j-1)
	}
	return sign | uint16(j)
}

// FuzzF16Bits holds the encoder to f16Nearest on any float64 bit pattern.
func FuzzF16Bits(f *testing.F) {
	for _, x := range []float64{
		1 + 0x1p-11, 1 + 3*0x1p-11, -(1 + 0x1p-11), // ties at normal spacing
		3 * 0x1p-25, 5 * 0x1p-25, // ties at subnormal spacing
		65504, 65519.99, 65520, 0x1p-24, 0x1p-25, 0, math.Copysign(0, -1),
	} {
		f.Add(math.Float64bits(x))
	}
	for _, nan := range []uint64{0x7ff8000000000000, 0x7ff0000000000001, 0xfff8000000000123, 0xffffffffffffffff} {
		f.Add(nan)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := F16Bits(x), f16Nearest(x); got != want {
			t.Fatalf("F16Bits(%g = %#x) = %#04x, nearest half %#04x", x, bits, got, want)
		}
	})
}
