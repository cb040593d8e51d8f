//go:build amd64 && !amd64.v3

package tensor

import "unsafe"

// goUnfused: the compiler never contracts x*y+z in this build, so a kernel
// that rounds a scalar body's multiplies and adds apart holds its bits (the
// training kernels here, lstmSteps' cell update).
const goUnfused = true

// Training kernels: each runs the scalar Go body its comment names eight lanes
// at a time, bit for bit (rules and build tag: train_amd64.s). A ...Fast leaf
// reports false when its caller must run that scalar body instead.

// gemmTNAVX512 computes out[i,:] += a[p,i]*b[p,:] for i in [0,rows) over all
// r >= 1 rows p in ascending order, skipping zero a[p,i] (gemmTNRows' body).
//
//mpgraph:noalloc
//go:noescape
func gemmTNAVX512(out, a, b *float64, m, r, n, rows int64)

// adamAVX512 is nn.Adam's element update over n values; omb1 and omb2 are
// 1-b1 and 1-b2, bc1 and bc2 the bias corrections of the current step, r1 +
// r1lo and r2 + r2lo their reciprocals, each split in two (where its quotient
// estimates start), and scale multiplies each gradient as it is loaded (the
// clip rescale). A nil grad reads as +0. It returns how many 8-wide tiles fell
// back from the estimates to the divider.
//
//mpgraph:noalloc
//go:noescape
func adamAVX512(p, grad, m, v *float64, n int64, b1, omb1, b2, omb2, bc1, bc2, r1, r1lo, r2, r2lo, lr, eps, scale float64) int64

// gemmRowsAVX512 computes out[i,:] += a[i,:] @ b over rows rows, each row
// in maddPanel's order (gemmRows' body). k, n >= 1.
//
//mpgraph:noalloc
//go:noescape
func gemmRowsAVX512(out, a, b *float64, k, n, rows int64)

// gemmNTAVX512 computes out[i][j] += dot(a[i,:], b[j,:]) over rows A rows and
// the first cols (a multiple of 4) output columns, each dot product in
// dotRows4's order (gemmNTRows' blocks of four columns). k >= 1.
//
//go:noescape
func gemmNTAVX512(out, a, b *float64, k, n, cols, rows int64)

// sumSquaresAVX512 returns Σ x[i]² over n values, summed in no fixed order.
//
//go:noescape
func sumSquaresAVX512(x *float64, n int64) float64

// sumSquaresSeqAVX512 returns total + x[0]² + x[1]² + ... in that order.
//
//go:noescape
func sumSquaresSeqAVX512(total float64, x *float64, n int64) float64

// addVecAVX512 sets o[i] = x[i] + y[i] over n values (addVec's body).
//
//go:noescape
func addVecAVX512(o, x, y *float64, n int64)

// maddVecAVX512 computes o[i] += x[i]*y[i] over n values (maddVec's body).
//
//go:noescape
func maddVecAVX512(o, x, y *float64, n int64)

// axpyVecAVX512 computes o[i] += x[i]*s over n values (axpyVec's body).
//
//go:noescape
func axpyVecAVX512(o, x *float64, n int64, s float64)

// reluGradVecAVX512 computes o[i] += x[i] where y[i] > 0 over n values
// (reluGradVec's body).
//
//go:noescape
func reluGradVecAVX512(o, x, y *float64, n int64)

func gemmTNRowsFast(out, a, b []float64, m, r, n, i0, i1 int) bool {
	if !useAVX512F || r == 0 || n == 0 || i0 >= i1 {
		return false
	}
	out, a, b = out[i0*n:i1*n], a[i0:r*m], b[:r*n]
	gemmTNAVX512(&out[0], &a[0], &b[0], int64(m), int64(r), int64(n), int64(i1-i0))
	return true
}

// gemmRowsFast is gemmRows at float64.
//
//mpgraph:noalloc
func gemmRowsFast[T float32 | float64](out, a, b []T, k, n, r0, r1 int) bool {
	var z T
	if unsafe.Sizeof(z) != 8 || !useAVX512F || k == 0 || n == 0 || r0 >= r1 {
		return false
	}
	out, a, b = out[r0*n:r1*n], a[r0*k:r1*k], b[:k*n]
	gemmRowsAVX512(asF64(&out[0]), asF64(&a[0]), asF64(&b[0]), int64(k), int64(n), int64(r1-r0))
	return true
}

// gemmNTRowsFast runs gemmNTRows' whole blocks of four output columns for
// rows [r0,r1) and returns how many columns it did (0: none).
func gemmNTRowsFast(out, a, b []float64, k, n, r0, r1 int) int {
	cols := n &^ 3
	if !useAVX512F || k == 0 || cols == 0 || r0 >= r1 {
		return 0
	}
	out, a, b = out[r0*n:r1*n], a[r0*k:r1*k], b[:cols*k]
	gemmNTAVX512(&out[0], &a[0], &b[0], int64(k), int64(n), int64(cols), int64(r1-r0))
	return cols
}

func addVecFast(o, x, y []float64) bool {
	n := len(o)
	if !useAVX512F || n == 0 {
		return false
	}
	x, y = x[:n], y[:n]
	addVecAVX512(&o[0], &x[0], &y[0], int64(n))
	return true
}

func maddVecFast(o, x, y []float64) bool {
	n := len(o)
	if !useAVX512F || n == 0 {
		return false
	}
	x, y = x[:n], y[:n]
	maddVecAVX512(&o[0], &x[0], &y[0], int64(n))
	return true
}

func axpyVecFast(o, x []float64, s float64) bool {
	n := len(o)
	if !useAVX512F || n == 0 {
		return false
	}
	x = x[:n]
	axpyVecAVX512(&o[0], &x[0], int64(n), s)
	return true
}

func reluGradVecFast(o, x, y []float64) bool {
	n := len(o)
	if !useAVX512F || n == 0 {
		return false
	}
	x, y = x[:n], y[:n]
	reluGradVecAVX512(&o[0], &x[0], &y[0], int64(n))
	return true
}

// SumSquaresFast returns Σ g[i]² summed in no fixed order, and false where
// no vector kernel runs. Only a rounding-error bound may read it: it is not
// the ordered sum.
func SumSquaresFast(g []float64) (float64, bool) {
	if !useAVX512F {
		return 0, false
	}
	if len(g) == 0 {
		return 0, true
	}
	return sumSquaresAVX512(&g[0], int64(len(g))), true
}

// SumSquaresSeqFast returns total + g[0]² + g[1]² + ... in that order on the
// vector kernel, and false where there is none.
func SumSquaresSeqFast(total float64, g []float64) (float64, bool) {
	if !useAVX512F {
		return 0, false
	}
	if len(g) == 0 {
		return total, true
	}
	return sumSquaresSeqAVX512(total, &g[0], int64(len(g))), true
}

// AdamUpdateFast applies nn.Adam's element update, on gradients g·s.Scale,
// on the vector kernel; a nil g stands for +0 gradients and reads none. It
// returns how many 8-wide tiles fell back from the kernel's verified
// quotient estimates to the divider, and false where no vector kernel runs.
func AdamUpdateFast(p, g, m, v []float64, s *AdamStep) (int, bool) {
	n := len(p)
	if !useAVX512F || n == 0 {
		return 0, false
	}
	m, v = m[:n], v[:n]
	var gp *float64
	if g != nil {
		gp = &g[:n][0]
	}
	return int(adamAVX512(&p[0], gp, &m[0], &v[0], int64(n), s.Beta1, 1-s.Beta1, s.Beta2, 1-s.Beta2,
		s.BC1, s.BC2, s.R1[0], s.R1[1], s.R2[0], s.R2[1], s.LR, s.Eps, s.Scale)), true
}
