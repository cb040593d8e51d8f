package tensor

import (
	"math"
	"unsafe"
)

// parentSoftmaxRows is the row softmax kernel the fused attention kernel
// replaced (vsoftmaxRows{,F32}AVX512, gone since), operation for operation,
// so the attention oracle can rebuild the parent's composition in Go. Per row
// of p [rows x cols], in the kernel's lane-striped layout of w-element
// chunks (w = 8 at f64, 16 at f32):
//   - lane l's running max over the row's columns l, l+w, ... from -Inf, the
//     tail chunk's missing lanes read as -Inf; VMAX's operands as the kernel
//     had them (the column first), so a NaN column never wins;
//   - the horizontal fold, lane i with lane i+w/2, then i+w/4, ..., 1;
//   - e = exp(x - max) by expZ0;
//   - lane l's running sum from +0, the tail's missing lanes read as +0, and
//     the same fold;
//   - one divide for 1/sum, then 1/sum · e over the full chunks and
//     e · 1/sum over the tail chunk.
//
// Each op is an x86 one (vmax, vsub, ...): which NaN survives is decided as
// the vector unit decides it.
func parentSoftmaxRows[T float32 | float64](p []T, rows, cols int) {
	var zero T
	w := 64 / int(unsafe.Sizeof(zero))
	chunks := (cols + w - 1) / w
	full := (chunks - 1) * w // columns in full chunks
	ec := expConstsOf[T]()
	lane := make([]T, w)
	e := make([]T, cols)
	for r := 0; r < rows; r++ {
		row := p[r*cols : (r+1)*cols]
		for l := range lane {
			lane[l] = T(math.Inf(-1))
		}
		for c := 0; c < chunks*w; c++ {
			x := T(math.Inf(-1))
			if c < cols {
				x = row[c]
			}
			lane[c%w] = vmax(x, lane[c%w])
		}
		m := fold(lane, vmax[T])
		for c, x := range row {
			e[c] = expZ0(ec, vsub(x, m))
		}
		clear(lane)
		for c := 0; c < chunks*w; c++ {
			var x T
			if c < cols {
				x = e[c]
			}
			lane[c%w] = vadd(lane[c%w], x)
		}
		inv := vdiv(1, fold(lane, vadd[T]))
		for c := range row {
			if c < full {
				row[c] = vmul(inv, e[c])
			} else {
				row[c] = vmul(e[c], inv)
			}
		}
	}
}

// fold is the kernels' horizontal reduction: lane i = op(lane i, lane i+h)
// for h = w/2, w/4, ..., 1, the low lane the first source. It overwrites v.
func fold[T float32 | float64](v []T, op func(a, b T) T) T {
	for h := len(v) / 2; h >= 1; h /= 2 {
		for i := 0; i < h; i++ {
			v[i] = op(v[i], v[i+h])
		}
	}
	return v[0]
}

// expConsts are expZ0's constants: the clamp, log2 e, Cody–Waite's split of
// ln 2 and the Taylor coefficients from the highest degree down to 1/2!.
type expConsts[T float32 | float64] struct {
	clamp, log2e, ln2hi, ln2lo T
	c                          []T
}

// expConstsOf returns the kernels' DATA tables as the assembler stores them:
// each value parsed as a float64, then narrowed at run time for the f32
// tables (which is not always what a float32 constant would round to).
func expConstsOf[T float32 | float64]() expConsts[T] {
	taylor := []float64{ // 1/11! .. 1/2!
		2.505210838544172e-08, 2.755731922398589e-07, 2.7557319223985893e-06,
		2.48015873015873e-05, 0.0001984126984126984, 0.001388888888888889,
		0.008333333333333333, 0.041666666666666664, 0.16666666666666666, 0.5,
	}
	k := []float64{708.0, 1.44269504088896340736, 0.693147180369123816490, 1.90821492927058770002e-10}
	var zero T
	if unsafe.Sizeof(zero) == 4 { // degree 8, fdlibm's float ln 2 split
		k = []float64{87.0, 1.44269504088896340736, 0.693359375, -2.12194440e-4}
		taylor = taylor[3:]
	}
	ec := expConsts[T]{clamp: T(k[0]), log2e: T(k[1]), ln2hi: T(k[2]), ln2lo: T(k[3])}
	for _, c := range taylor {
		ec.c = append(ec.c, T(c))
	}
	return ec
}

// expZ0 is the kernels' exp, EXPZ0 op for op: both clamps with x as the
// second source (a NaN stays NaN), n = x·log2e rounded to nearest even
// (VRNDSCALE $0), r = x - n·ln2hi - n·ln2lo as two VFNMADDs, the Horner chain
// p = r·p + c as FMAs down to two steps with 1, then VSCALEF: p · 2^n.
func expZ0[T float32 | float64](ec expConsts[T], x T) T {
	x = vmin(ec.clamp, x)
	x = vmax(-ec.clamp, x)
	n := roundEven(vmul(x, ec.log2e))
	r := vfnma(n, ec.ln2hi, x)
	r = vfnma(n, ec.ln2lo, r)
	p := ec.c[0]
	for _, c := range ec.c[1:] {
		p = vfma(r, p, c)
	}
	p = vfma(r, p, 1)
	p = vfma(r, p, 1)
	return scalef(p, n)
}

// vmax and vmin are VMAX/VMIN with a the first source and b the second:
// b unless a is strictly greater (smaller), so b when either is NaN and when
// both are zeros.
func vmax[T float32 | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func vmin[T float32 | float64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

func vadd[T float32 | float64](a, b T) T { return x86Result(a, b, a+b) }
func vsub[T float32 | float64](a, b T) T { return x86Result(a, b, a-b) }
func vmul[T float32 | float64](a, b T) T { return x86Result(a, b, a*b) }
func vdiv[T float32 | float64](a, b T) T { return x86Result(a, b, a/b) }

// x86Result is what an SSE/AVX arithmetic op returns for sources a, b and the
// IEEE result r: a NaN source wins, the first over the second, quieted; an
// invalid operation gives the default NaN (negative, zero payload).
func x86Result[T float32 | float64](a, b, r T) T {
	switch {
	case r == r:
		return r
	case a != a:
		return quiet(a)
	case b != b:
		return quiet(b)
	case unsafe.Sizeof(r) == 4:
		return T(math.Float32frombits(0xffc00000))
	}
	return T(math.Float64frombits(0xfff8000000000000))
}

// vfma is a·b + c with one rounding at T's precision (f32: fma32). A NaN
// operand wins in operand order; in expZ0 every NaN is x's, so the order
// never decides anything there.
func vfma[T float32 | float64](a, b, c T) T {
	var r T
	if unsafe.Sizeof(a) == 4 {
		r = T(fma32(float32(a), float32(b), float32(c)))
	} else {
		r = T(math.FMA(float64(a), float64(b), float64(c)))
	}
	if r == r {
		return r
	}
	for _, v := range [...]T{a, b, c} {
		if v != v {
			return quiet(v)
		}
	}
	return r
}

// vfnma is VFNMADD, -(a·b) + c: the negation is exact and, like the
// instruction, leaves a NaN operand's sign alone.
func vfnma[T float32 | float64](a, b, c T) T {
	if a != a {
		return quiet(a)
	}
	return vfma(-a, b, c)
}

// roundEven is VRNDSCALE $0: to the nearest integer, ties to even.
func roundEven[T float32 | float64](x T) T {
	if x != x {
		return quiet(x)
	}
	return T(math.RoundToEven(float64(x)))
}

// scalef is VSCALEF for an integral n: p · 2^n, rounded once (the product is
// exact in float64 for an f32 p, and Ldexp rounds a subnormal result once).
func scalef[T float32 | float64](p, n T) T {
	if p != p {
		return quiet(p)
	}
	if n != n {
		return quiet(n)
	}
	return T(math.Ldexp(float64(p), int(n)))
}

// quiet sets a NaN's quiet bit, as the vector unit does to a NaN it returns.
func quiet[T float32 | float64](x T) T {
	if unsafe.Sizeof(x) == 4 {
		b := math.Float32bits(float32(x)) | 1<<22
		return T(math.Float32frombits(b))
	}
	b := math.Float64bits(float64(x)) | 1<<51
	return T(math.Float64frombits(b))
}
