package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Row-kernel oracles: the vrows, vmeanRows, firstAbove and sigmoidWiden
// kernels and the pitched attention store against the scalar loops they
// replaced, bit for bit, on random ragged shapes with NaN, ±Inf and -0
// planted. Each kernel only moves data or keeps its loop's operations in
// order, so there is no tolerance anywhere.

// sameBits reports whether a and b hold the same bit patterns (widening
// to float64 is exact and keeps a NaN's payload).
func sameBits[T float32 | float64](a, b []T) bool {
	return slices.EqualFunc(a, b, func(x, y T) bool { return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) })
}

// needKernels skips a kernel-against-loop oracle on a host without the
// AVX-512F kernels, where both sides would be the loop.
func needKernels(t *testing.T) {
	t.Helper()
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
}

// TestKernelOracleRows: rowsInto's kernel writes what its loop writes —
// moves, gathers by id, adds of a row table or of one broadcast row — into a
// pitched window, and nothing outside it.
func TestKernelOracleRows(t *testing.T) {
	needKernels(t)
	rowsOracle[float64](t)
	rowsOracle[float32](t)
}

func rowsOracle[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		rows := rng.Intn(20)
		cols := oracleDims[rng.Intn(len(oracleDims))]
		opitch := cols + rng.Intn(3)*rng.Intn(40)
		tableRows := rows + 1 + rng.Intn(5)
		x := randOperands[T](rng, tableRows*cols, 9)
		var ids []int
		if rng.Intn(2) == 0 {
			ids = make([]int, rows)
			for i := range ids {
				ids[i] = rng.Intn(tableRows)
			}
		}
		var y []T
		ystride := 0
		switch rng.Intn(3) {
		case 1:
			ystride = cols
			y = randOperands[T](rng, max(rows, 1)*cols, 9)
		case 2:
			y = randOperands[T](rng, cols, 9)
		}
		size := max(rows-1, 0)*opitch + cols + 3
		guard := randOperands[T](rng, size, 0)
		native := append([]T(nil), guard...)
		scalar := append([]T(nil), guard...)
		rowsInto(native, x, y, ids, rows, cols, opitch, ystride)
		portable(func() { rowsInto(scalar, x, y, ids, rows, cols, opitch, ystride) })
		if !sameBits(native, scalar) {
			t.Fatalf("trial %d: rows %d cols %d pitch %d ids %v ystride %d (y %v): kernel %v, loop %v",
				trial, rows, cols, opitch, ids != nil, ystride, y != nil, native, scalar)
		}
	}
}

// TestKernelOracleMeanRows: the vector mean-pool is the loop's sum of
// row·(1/T) from +0 in row order, lane by lane, at every block count.
func TestKernelOracleMeanRows(t *testing.T) {
	needKernels(t)
	if !goUnfused {
		t.Skip("the Go loop may fuse its multiply-add here; the kernel is off")
	}
	meanRowsOracle[float64](t)
	meanRowsOracle[float32](t)
}

func meanRowsOracle[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	c := NewCtx()
	for _, blocks := range oracleBlocks {
		for _, rows := range []int{1, 2, 9, 18, 31} {
			for _, d := range oracleDims {
				a := &Dense[T]{Rows: blocks * rows, Cols: d, Data: randOperands[T](rng, blocks*rows*d, 40)}
				native := MeanRowsBatch(c, a, blocks)
				var scalar *Dense[T]
				portable(func() { scalar = MeanRowsBatch(c, a, blocks) })
				if !sameBits(native.Data, scalar.Data) {
					t.Fatalf("blocks %d rows %d d %d: kernel %v, loop %v", blocks, rows, d, native.Data, scalar.Data)
				}
				c.Reset()
			}
		}
	}
}

// TestKernelOracleFirstAbove: the vector scan finds the index the strict
// `>` loop finds — ties, ±0, NaN on either side and every tail length.
func TestKernelOracleFirstAbove(t *testing.T) {
	needKernels(t)
	firstAboveOracle[float64](t)
	firstAboveOracle[float32](t)
}

func firstAboveOracle[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(140)
		if trial%100 == 0 {
			n = 1024
		}
		s := randOperands[T](rng, n, 7)
		var v T
		switch {
		case n > 0 && rng.Intn(2) == 0:
			v = s[rng.Intn(n)] // a tie, possibly a special
		default:
			v = T(rng.NormFloat64() + 2)
		}
		var want int
		portable(func() { want = FirstAbove(s, v) })
		if got := FirstAbove(s, v); got != want {
			t.Fatalf("trial %d n %d v %v: kernel %d, loop %d", trial, n, v, got, want)
		}
	}
}

// TestKernelOracleSigmoidWiden: the one-pass f32 hand-off is the screen,
// the in-place sigmoid and the widening it replaced, on each kernel family:
// sigmoid's bits on finite rows, the raw logits' where one is not.
func TestKernelOracleSigmoidWiden(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	c := NewCtx()
	parent := func(logits *F32Tensor) *Tensor {
		for _, v := range logits.Data {
			if v-v != 0 {
				return WidenCtx(c, logits)
			}
		}
		return WidenCtx(c, SigmoidInPlace(c, logits))
	}
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(9), oracleDims[rng.Intn(len(oracleDims))]
		poison := 0
		if trial%3 == 0 {
			poison = 1 + rng.Intn(rows*cols)*2
		}
		data := randOperands[float32](rng, rows*cols, poison)
		for i := range data {
			data[i] *= 30 // reach the ±40 clamps
		}
		for _, forced := range []bool{false, true} {
			if !forced && !batchKernelAvailable() {
				continue
			}
			var got, want *Tensor
			run := func() {
				got = SigmoidWidenCtx(c, &F32Tensor{Rows: rows, Cols: cols, Data: append([]float32(nil), data...)})
				want = parent(&F32Tensor{Rows: rows, Cols: cols, Data: append([]float32(nil), data...)})
			}
			if forced {
				portable(run)
			} else {
				run()
			}
			if !sameBits(got.Data, want.Data) {
				t.Fatalf("trial %d portable=%v: one pass %v, composition %v", trial, forced, got.Data, want.Data)
			}
			c.Reset()
		}
	}
}

// TestAttentionIntoWindow: AttentionBlocksInto stores AttentionBlocks' bits
// into its column window of a wider tensor — a head's columns of the
// concat — and leaves every other element, on both kernel families.
func TestAttentionIntoWindow(t *testing.T) {
	attentionIntoOracle[float64](t)
	attentionIntoOracle[float32](t)
}

func attentionIntoOracle[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	c := NewCtx()
	for _, forced := range []bool{false, true} {
		if !forced && !batchKernelAvailable() {
			continue
		}
		for _, blocks := range oracleBlocks {
			for _, tt := range []int{1, 9, 17} {
				for _, dv := range []int{1, 16, 17} {
					d := 8
					q := &Dense[T]{Rows: blocks * tt, Cols: d, Data: randOperands[T](rng, blocks*tt*d, 0)}
					k := &Dense[T]{Rows: blocks * tt, Cols: d, Data: randOperands[T](rng, blocks*tt*d, 0)}
					v := &Dense[T]{Rows: blocks * tt, Cols: dv, Data: randOperands[T](rng, blocks*tt*dv, 0)}
					colOff := rng.Intn(20)
					pitch := dv + colOff + rng.Intn(20)
					guard := randOperands[T](rng, blocks*tt*pitch, 0)
					dst := &Dense[T]{Rows: blocks * tt, Cols: pitch, Data: append([]T(nil), guard...)}
					var want *Dense[T]
					run := func() {
						want = AttentionBlocks(c, q, k, v, blocks, 0.25)
						AttentionBlocksInto(c, dst, colOff, q, k, v, blocks, 0.25)
					}
					if forced {
						portable(run)
					} else {
						run()
					}
					exp := append([]T(nil), guard...)
					for b := 0; b < blocks; b++ {
						for r := 0; r < tt; r++ {
							copy(exp[(b*tt+r)*pitch+colOff:][:dv], want.Data[(b*tt+r)*dv:][:dv])
						}
					}
					if !sameBits(dst.Data, exp) {
						t.Fatalf("portable=%v blocks %d t %d dv %d at column %d of %d: window differs",
							forced, blocks, tt, dv, colOff, pitch)
					}
					c.Reset()
				}
			}
		}
	}
}

// TestTimeMajorBatch: the reorder is the per-row copy loop it replaced, on
// both kernel families.
func TestTimeMajorBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	c := NewCtx()
	for _, blocks := range oracleBlocks {
		for _, d := range oracleDims {
			tt := 9
			x := &Dense[float32]{Rows: blocks * tt, Cols: d, Data: randOperands[float32](rng, blocks*tt*d, 9)}
			want := make([]float32, len(x.Data))
			for r := 0; r < x.Rows; r++ {
				copy(want[(r%tt*blocks+r/tt)*d:], x.Data[r*d:(r+1)*d])
			}
			got := TimeMajorBatch(c, x, blocks)
			var scalar *Dense[float32]
			portable(func() { scalar = TimeMajorBatch(c, x, blocks) })
			if !sameBits(got.Data, want) || !sameBits(scalar.Data, want) {
				t.Fatalf("blocks %d d %d: reorder differs from the row loop", blocks, d)
			}
			c.Reset()
		}
	}
}
