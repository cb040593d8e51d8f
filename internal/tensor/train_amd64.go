//go:build amd64 && !amd64.v3

package tensor

import "unsafe"

// Training kernels: each runs the scalar Go body its comment names eight lanes
// at a time, bit for bit (rules and build tag: train_amd64.s). A ...Fast leaf
// reports false when its caller must run that scalar body instead.

// maddRows4AVX512 computes o[j] += ((b0[j]*a0 + b1[j]*a1) + b2[j]*a2) +
// b3[j]*a3 over n values (maddRows4's body).
//
//mpgraph:noalloc
//go:noescape
func maddRows4AVX512(o, b0, b1, b2, b3 *float64, n int64, a0, a1, a2, a3 float64)

// gemmTNAVX512 computes out[i,:] += a[p,i]*b[p,:] for i in [0,rows) over all
// r >= 1 rows p in ascending order, skipping zero a[p,i] (gemmTNRows' body).
//
//mpgraph:noalloc
//go:noescape
func gemmTNAVX512(out, a, b *float64, m, r, n, rows int64)

// scaleAVX512 computes x[i] *= s over n values.
//
//mpgraph:noalloc
//go:noescape
func scaleAVX512(x *float64, n int64, s float64)

// adamAVX512 is nn.Adam's element update over n values; omb1 and omb2 are
// 1-b1 and 1-b2, bc1 and bc2 the bias corrections of the current step.
//
//mpgraph:noalloc
//go:noescape
func adamAVX512(p, grad, m, v *float64, n int64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64)

// maddRowFast is maddRow at float64: gemmTNAVX512 at one row of one column,
// except for the zero av that kernel skips and maddRow's body does not.
//
//mpgraph:noalloc
func maddRowFast[T float32 | float64](orow, brow []T, av T) bool {
	if unsafe.Sizeof(av) != 8 || !useAVX512F || len(brow) == 0 || av == 0 {
		return false
	}
	gemmTNAVX512(asF64(&orow[0]), asF64(&av), asF64(&brow[0]), 1, 1, int64(len(brow)), 1)
	return true
}

// maddRows4Fast is maddRows4 at float64; the b rows hold len(orow) values.
//
//mpgraph:noalloc
func maddRows4Fast[T float32 | float64](orow, b0, b1, b2, b3 []T, a0, a1, a2, a3 T) bool {
	if unsafe.Sizeof(a0) != 8 || !useAVX512F || len(orow) == 0 {
		return false
	}
	maddRows4AVX512(asF64(&orow[0]), asF64(&b0[0]), asF64(&b1[0]), asF64(&b2[0]), asF64(&b3[0]), int64(len(orow)), float64(a0), float64(a1), float64(a2), float64(a3))
	return true
}

func gemmTNRowsFast(out, a, b []float64, m, r, n, i0, i1 int) bool {
	if !useAVX512F || r == 0 || n == 0 || i0 >= i1 {
		return false
	}
	out, a, b = out[i0*n:i1*n], a[i0:r*m], b[:r*n]
	gemmTNAVX512(&out[0], &a[0], &b[0], int64(m), int64(r), int64(n), int64(i1-i0))
	return true
}

// ScaleFast computes g[i] *= s on the vector kernel.
func ScaleFast(g []float64, s float64) bool {
	if !useAVX512F || len(g) == 0 {
		return false
	}
	scaleAVX512(&g[0], int64(len(g)), s)
	return true
}

// AdamUpdateFast applies nn.Adam's element update on the vector kernel.
func AdamUpdateFast(p, g, m, v []float64, b1, b2, bc1, bc2, lr, eps float64) bool {
	n := len(g)
	if !useAVX512F || n == 0 {
		return false
	}
	p, m, v = p[:n], m[:n], v[:n]
	adamAVX512(&p[0], &g[0], &m[0], &v[0], int64(n), b1, 1-b1, b2, 1-b2, bc1, bc2, lr, eps)
	return true
}
