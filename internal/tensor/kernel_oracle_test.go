package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel oracle (ROADMAP item 4): every vector kernel against its scalar twin
// on random shapes — ragged tails, one row, one column, many blocks — and the
// remainder-row GEMM paths against the 4-row kernel bit for bit.

var (
	oracleDims   = []int{1, 7, 16, 17, 32, 33, 64}
	oracleBlocks = []int{1, 3, 8}
)

// f32Ulps is the distance in float32 ulps between a and b (NaN on either
// side is infinitely far).
func f32Ulps(a, b float32) int64 {
	ord := func(f float32) int64 {
		u := math.Float32bits(f)
		if u&0x80000000 != 0 {
			return -int64(u &^ 0x80000000)
		}
		return int64(u)
	}
	if a != a || b != b {
		return math.MaxInt64
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return d
}

// closeF32 is the f32 tier's 4096-ulp bound, with an absolute floor for
// values near zero where an ulp is meaninglessly small.
func closeF32(a, b float32) bool {
	return f32Ulps(a, b) <= 4096 || math.Abs(float64(a)-float64(b)) <= 1e-6
}

// randOperands is n standard normals; when poisonOneIn is positive, one value
// in that many is NaN, +Inf, -Inf or -0 instead.
func randOperands[T float32 | float64](rng *rand.Rand, n, poisonOneIn int) []T {
	specials := [...]T{T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1)), T(math.Copysign(0, -1))}
	s := make([]T, n)
	for i := range s {
		s[i] = T(rng.NormFloat64())
		if poisonOneIn > 0 && rng.Intn(poisonOneIn) == 0 {
			s[i] = specials[rng.Intn(len(specials))]
		}
	}
	return s
}

// portable runs f with the scalar fallback forced.
func portable(f func()) {
	defer ForcePortableKernels()()
	f()
}

func TestKernelOracleAttention(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(41))
	c := NewCtx()
	for tt := 1; tt <= 33; tt++ {
		for _, d := range oracleDims {
			for _, blocks := range oracleBlocks {
				name := fmt.Sprintf("T=%d d=%d blocks=%d", tt, d, blocks)
				rows := blocks * tt
				scale := 1 / math.Sqrt(float64(d))
				q := view(c, rows, d, randSlice(rng, rows*d))
				k := view(c, rows, d, randSlice(rng, rows*d))
				v := view(c, rows, d, randSlice(rng, rows*d))
				native := AttentionBlocks(c, q, k, v, blocks, scale)
				var scalar *Tensor
				portable(func() { scalar = AttentionBlocks(c, q, k, v, blocks, scale) })
				qf, kf, vf := NarrowCtx[float32](c, q), NarrowCtx[float32](c, k), NarrowCtx[float32](c, v)
				nativeF32 := AttentionBlocks(c, qf, kf, vf, blocks, float32(scale))
				var scalarF32 *F32Tensor
				portable(func() { scalarF32 = AttentionBlocks(c, qf, kf, vf, blocks, float32(scale)) })
				for blk := 0; blk < blocks; blk++ {
					lo, hi := blk*tt*d, (blk+1)*tt*d
					auto := AttentionBlocks(nil,
						New(tt, d, q.Data[lo:hi]), New(tt, d, k.Data[lo:hi]),
						New(tt, d, v.Data[lo:hi]), 1, scale)
					for i, want := range auto.Data {
						if math.Abs(native.Data[lo+i]-want) > 1e-9 || math.Abs(scalar.Data[lo+i]-want) > 1e-9 {
							t.Fatalf("%s: f64 elem %d native %g portable %g autograd %g",
								name, lo+i, native.Data[lo+i], scalar.Data[lo+i], want)
						}
						if !closeF32(nativeF32.Data[lo+i], scalarF32.Data[lo+i]) || !closeF32(nativeF32.Data[lo+i], float32(want)) {
							t.Fatalf("%s: f32 elem %d native %g portable %g autograd %g",
								name, lo+i, nativeF32.Data[lo+i], scalarF32.Data[lo+i], want)
						}
					}
				}
				c.Reset()
			}
		}
	}
}

func TestKernelOracleSoftmaxRows(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(42))
	for rows := 1; rows <= 33; rows += 4 {
		for cols := 1; cols <= 33; cols++ {
			p := randSlice(rng, rows*cols)
			for i := range p {
				p[i] *= 10
			}
			pf := make([]float32, len(p))
			for i, v := range p {
				pf[i] = float32(v)
			}
			want := append([]float64(nil), p...)
			wantF := append([]float32(nil), pf...)
			softmaxRows(p, make([]float64, len(p)), rows, cols)
			softmaxRows(pf, make([]float32, len(pf)), rows, cols)
			portable(func() {
				softmaxRows(want, nil, rows, cols)
				softmaxRows(wantF, nil, rows, cols)
			})
			for i := range p {
				if math.Abs(p[i]-want[i]) > 1e-12 {
					t.Fatalf("%dx%d: f64 softmax[%d] = %g, want %g", rows, cols, i, p[i], want[i])
				}
				if !closeF32(pf[i], wantF[i]) {
					t.Fatalf("%dx%d: f32 softmax[%d] = %g, want %g", rows, cols, i, pf[i], wantF[i])
				}
			}
		}
	}
}

func TestKernelOracleAddLayerNorm(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(43))
	c := NewCtx()
	for tt := 1; tt <= 33; tt += 2 {
		for _, d := range oracleDims {
			for _, blocks := range oracleBlocks {
				for _, residual := range []bool{true, false} {
					name := fmt.Sprintf("T=%d d=%d blocks=%d residual=%v", tt, d, blocks, residual)
					rows := blocks * tt
					x := view(c, rows, d, randSlice(rng, rows*d))
					var y *Tensor
					var yf *F32Tensor
					if residual {
						y = view(c, rows, d, randSlice(rng, rows*d))
						yf = NarrowCtx[float32](c, y)
					}
					gain := view(c, 1, d, randSlice(rng, d))
					bias := view(c, 1, d, randSlice(rng, d))
					xf, gf, bf := NarrowCtx[float32](c, x), NarrowCtx[float32](c, gain), NarrowCtx[float32](c, bias)
					native := AddLayerNorm(c, x, y, gain, bias, 1e-5)
					nativeF := AddLayerNorm(c, xf, yf, gf, bf, 1e-5)
					var scalar *Tensor
					var scalarF *F32Tensor
					portable(func() {
						scalar = AddLayerNorm(c, x, y, gain, bias, 1e-5)
						scalarF = AddLayerNorm(c, xf, yf, gf, bf, 1e-5)
					})
					auto := AddLayerNorm(nil, x, y, gain, bias, 1e-5)
					for i, want := range auto.Data {
						if math.Abs(native.Data[i]-want) > 1e-9 || math.Abs(scalar.Data[i]-want) > 1e-9 {
							t.Fatalf("%s: f64 elem %d native %g portable %g autograd %g",
								name, i, native.Data[i], scalar.Data[i], want)
						}
						// A width-1 row normalises to 0/sqrt(eps): pure cancellation,
						// so compare f32 against its own scalar twin only there.
						if !closeF32(nativeF.Data[i], scalarF.Data[i]) {
							t.Fatalf("%s: f32 elem %d native %g portable %g", name, i, nativeF.Data[i], scalarF.Data[i])
						}
					}
					c.Reset()
				}
			}
		}
	}
}

// TestKernelOracleRemainderRows: every row of an m-row product — whichever of
// the 4-row, 2-row or 1-row kernels the tiling hands it to — carries the bits
// the 4-row kernel gives that row.
func TestKernelOracleRemainderRows(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	rng := rand.New(rand.NewSource(44))
	for m := 1; m <= 9; m++ {
		for _, k := range []int{1, 9, 18, 33} {
			for _, n := range []int{1, 9, 16, 17, 31, 32, 33, 63, 64, 65, 130} {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				seed := randSlice(rng, m*n)
				got := append([]float64(nil), seed...)
				fmaPanels(got, a, b, m, k, n)
				af, bf := make([]float32, len(a)), make([]float32, len(b))
				for i, v := range a {
					af[i] = float32(v)
				}
				for i, v := range b {
					bf[i] = float32(v)
				}
				seedF := make([]float32, len(seed))
				for i, v := range seed {
					seedF[i] = float32(v)
				}
				gotF := append([]float32(nil), seedF...)
				fmaPanels(gotF, af, bf, m, k, n)
				for r := 0; r < m; r++ {
					// Row r four times over is one 4-row tile.
					a4, o4 := make([]float64, 4*k), make([]float64, 4*n)
					a4f, o4f := make([]float32, 4*k), make([]float32, 4*n)
					for i := 0; i < 4; i++ {
						copy(a4[i*k:], a[r*k:(r+1)*k])
						copy(o4[i*n:], seed[r*n:(r+1)*n])
						copy(a4f[i*k:], af[r*k:(r+1)*k])
						copy(o4f[i*n:], seedF[r*n:(r+1)*n])
					}
					fmaPanels(o4, a4, b, 4, k, n)
					fmaPanels(o4f, a4f, bf, 4, k, n)
					for j := 0; j < n; j++ {
						if math.Float64bits(got[r*n+j]) != math.Float64bits(o4[j]) {
							t.Fatalf("f64 m=%d k=%d n=%d row %d col %d: %x, 4-row kernel %x",
								m, k, n, r, j, math.Float64bits(got[r*n+j]), math.Float64bits(o4[j]))
						}
						if math.Float32bits(gotF[r*n+j]) != math.Float32bits(o4f[j]) {
							t.Fatalf("f32 m=%d k=%d n=%d row %d col %d: %x, 4-row kernel %x",
								m, k, n, r, j, math.Float32bits(gotF[r*n+j]), math.Float32bits(o4f[j]))
						}
					}
				}
			}
		}
	}
}

// TestKernelOracleWideRowTile: the 1-row kernel's eight-accumulator tile,
// which takes every full 64 columns (f32: 128) of an m = 1 product, leaves
// each element the bits of the masked four-accumulator tile (the same product
// cut into column slabs too narrow for the wide one), of the 4-row kernel
// (the row four times over) and of the scalar FMA chain — with
// NaN, ±Inf and -0 among the operands as without.
func TestKernelOracleWideRowTile(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	wideRowTile[float64](t, 200, 32)
	wideRowTile[float32](t, 300, 64)
}

// wideRowTile checks widths 1..maxN; slab is a width the wide tile never takes.
func wideRowTile[T float32 | float64](t *testing.T, maxN, slab int) {
	rng := rand.New(rand.NewSource(47))
	fill := func(n int, poison bool) []T {
		if poison {
			return randOperands[T](rng, n, 16)
		}
		return randOperands[T](rng, n, 0)
	}
	same := func(x, y T) bool { return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) }
	for _, k := range []int{0, 1, 9, 64} {
		for n := 1; n <= maxN; n++ {
			for _, poison := range []bool{false, true} {
				a, b, seed := fill(k, poison), fill(k*n, poison), fill(n, poison)
				got := append([]T(nil), seed...)
				gemmBatch(got, a, b, 1, k, n)

				narrow := append([]T(nil), seed...)
				for c0 := 0; c0 < n; c0 += slab {
					w := min(slab, n-c0)
					bs := make([]T, k*w)
					for p := 0; p < k; p++ {
						copy(bs[p*w:(p+1)*w], b[p*n+c0:])
					}
					gemmBatch(narrow[c0:c0+w], a, bs, 1, k, w)
				}
				a4, o4 := make([]T, 4*k), make([]T, 4*n)
				for r := 0; r < 4; r++ {
					copy(a4[r*k:], a)
					copy(o4[r*n:], seed)
				}
				gemmBatch(o4, a4, b, 4, k, n)
				chain := append([]T(nil), seed...)
				fmaChain(chain, a, b, 1, k, n)
				for j := range got {
					// The hardware FMA and math.FMA may keep different NaNs of two.
					sameChain := same(got[j], chain[j]) || got[j] != got[j] && chain[j] != chain[j]
					if !same(got[j], narrow[j]) || !same(got[j], o4[j]) || !sameChain {
						t.Fatalf("%T k=%d n=%d poison=%v col %d: wide tile %v, narrow tile %v, 4-row kernel %v, scalar chain %v",
							got[j], k, n, poison, j, got[j], narrow[j], o4[j], chain[j])
					}
				}
			}
		}
	}
}

// fourRowPanels is out += a @ b on the 4-, 2- and 1-row kernels alone,
// whatever m is: no group of four rows or fewer is a whole window, so fmaPanels
// hands each to the tiling every product had before the window-row tiles.
func fourRowPanels[T float32 | float64](out, a, b []T, m, k, n int) {
	for r := 0; r < m; r += 4 {
		rows := min(4, m-r)
		fmaPanels(out[r*n:(r+rows)*n], a[r*k:(r+rows)*k], b, rows, k, n)
	}
}

// TestKernelOracleWindowRows: on every census shape and on random products of
// whole windows (one sequence to a stacked batch of 64, widths 1..130 so every
// column remainder of both tiles occurs), the window-row tiles leave each
// element the bits of the 4/2/1-row kernels and of the scalar ascending-p FMA
// chain — with NaN, ±Inf and -0 among the operands too, where the scalar chain
// may keep the other NaN of two — and a sequence scored alone, in a stacked
// batch or row by row carries the same bits.
func TestKernelOracleWindowRows(t *testing.T) {
	if !batchKernelAvailable() {
		t.Skip("no AVX-512F batch kernels on this machine")
	}
	windowRowsOracle[float64](t)
	windowRowsOracle[float32](t)
}

func windowRowsOracle[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	fill := func(n int, poison bool) []T {
		if poison {
			return randOperands[T](rng, n, 64)
		}
		return randOperands[T](rng, n, 0)
	}
	same := func(x, y T) bool { return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) }

	shapes := append([]PanelShape(nil), censusShapes...)
	for i := 0; i < 200; i++ {
		m := []int{9, 18, 27, 72, 576}[rng.Intn(5)]
		shapes = append(shapes, PanelShape{m, 1 + rng.Intn(33), 1 + rng.Intn(130)})
	}
	for i, s := range shapes {
		m, k, n := s.M, s.K, s.N
		poison := i%4 == 3
		a, b, seed := fill(m*k, poison), fill(k*n, poison), fill(m*n, poison)
		got := append([]T(nil), seed...)
		fmaPanels(got, a, b, m, k, n)
		four := append([]T(nil), seed...)
		fourRowPanels(four, a, b, m, k, n)
		chain := append([]T(nil), seed...)
		fmaChain(chain, a, b, m, k, n)
		for j := range got {
			sameChain := same(got[j], chain[j]) || poison && got[j] != got[j] && chain[j] != chain[j]
			if !same(got[j], four[j]) || !sameChain {
				t.Fatalf("%T m=%d k=%d n=%d poison=%v row %d col %d: window tile %v, 4-row kernels %v, scalar chain %v",
					got[j], m, k, n, poison, j/n, j%n, got[j], four[j], chain[j])
			}
		}
	}

	// Batch composition: B stacked sequences of one window (a modality
	// encoder) or two (fusion) against each sequence alone and each row alone.
	for _, batch := range []int{1, 2, 8, 64} {
		for _, rows := range []int{WindowRows, 2 * WindowRows} {
			m, k, n := batch*rows, 1+rng.Intn(33), 1+rng.Intn(130)
			a, b, seed := fill(m*k, false), fill(k*n, false), fill(m*n, false)
			stacked := append([]T(nil), seed...)
			fmaPanels(stacked, a, b, m, k, n)
			alone := append([]T(nil), seed...)
			for r := 0; r < m; r += rows {
				fmaPanels(alone[r*n:(r+rows)*n], a[r*k:(r+rows)*k], b, rows, k, n)
			}
			byRow := append([]T(nil), seed...)
			for r := 0; r < m; r++ {
				fmaPanels(byRow[r*n:(r+1)*n], a[r*k:(r+1)*k], b, 1, k, n)
			}
			for j := range stacked {
				if !same(stacked[j], alone[j]) || !same(stacked[j], byRow[j]) {
					t.Fatalf("%T B=%d rows=%d k=%d n=%d elem %d: stacked %v, sequence alone %v, row alone %v",
						stacked[j], batch, rows, k, n, j, stacked[j], alone[j], byRow[j])
				}
			}
		}
	}
}

// TestAttentionPropagatesNaN: a NaN in q, k or v must come out of the
// attention block as NaN (in the rows it reaches), on both kernel paths and
// in both tiers — never be laundered by a max, a clamp or a masked lane.
func TestAttentionPropagatesNaN(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		c := NewCtx()
		rng := rand.New(rand.NewSource(45))
		for _, tt := range []int{1, 9, 18} {
			for which := 0; which < 3; which++ {
				d := 16
				in := [3][]float64{randSlice(rng, tt*d), randSlice(rng, tt*d), randSlice(rng, tt*d)}
				// Poison the last row's last feature of q, k or v.
				in[which][tt*d-1] = math.NaN()
				q, k, v := view(c, tt, d, in[0]), view(c, tt, d, in[1]), view(c, tt, d, in[2])
				out := AttentionBlocks(c, q, k, v, 1, 0.25)
				if !math.IsNaN(out.Data[tt*d-1]) {
					t.Fatalf("f64 T=%d: NaN in input %d came out as %g", tt, which, out.Data[tt*d-1])
				}
				outF := AttentionBlocks(c, NarrowCtx[float32](c, q), NarrowCtx[float32](c, k), NarrowCtx[float32](c, v), 1, 0.25)
				if v := outF.Data[tt*d-1]; v == v {
					t.Fatalf("f32 T=%d: NaN in input %d came out as %g", tt, which, v)
				}
				c.Reset()
			}
		}
	})
}

// TestLayerNormPropagatesNaN: a NaN (or Inf) anywhere in a row of x or of the
// residual must turn that whole output row non-finite and leave the other
// rows alone.
func TestLayerNormPropagatesNaN(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		c := NewCtx()
		rng := rand.New(rand.NewSource(46))
		for _, d := range []int{1, 16, 19, 32} {
			for _, bad := range []float64{math.NaN(), math.Inf(1)} {
				for _, inResidual := range []bool{false, true} {
					rows := 5
					xd, yd := randSlice(rng, rows*d), randSlice(rng, rows*d)
					if inResidual {
						yd[3*d+d-1] = bad
					} else {
						xd[3*d+d-1] = bad
					}
					x, y := view(c, rows, d, xd), view(c, rows, d, yd)
					gain, bias := view(c, 1, d, randSlice(rng, d)), view(c, 1, d, randSlice(rng, d))
					out := AddLayerNorm(c, x, y, gain, bias, 1e-5)
					outF := AddLayerNorm(c, NarrowCtx[float32](c, x), NarrowCtx[float32](c, y), NarrowCtx[float32](c, gain), NarrowCtx[float32](c, bias), 1e-5)
					for i := range out.Data {
						poisoned := i/d == 3
						if got := math.IsNaN(out.Data[i]); got != poisoned {
							t.Fatalf("f64 d=%d bad=%g: out[%d] = %g, poisoned row %v", d, bad, i, out.Data[i], poisoned)
						}
						if got := outF.Data[i] != outF.Data[i]; got != poisoned {
							t.Fatalf("f32 d=%d bad=%g: out[%d] = %g, poisoned row %v", d, bad, i, outF.Data[i], poisoned)
						}
					}
					c.Reset()
				}
			}
		}
	})
}
