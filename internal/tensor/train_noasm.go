//go:build !amd64 || amd64.v3

package tensor

// The training kernels exist only where the scalar bodies are their exact
// twins (train_amd64.go); here every leaf sends its caller to the scalar body.

//mpgraph:noalloc
func maddRowFast[T float32 | float64](orow, brow []T, av T) bool { return false }

//mpgraph:noalloc
func maddRows4Fast[T float32 | float64](orow, b0, b1, b2, b3 []T, a0, a1, a2, a3 T) bool {
	return false
}

func gemmTNRowsFast(out, a, b []float64, m, r, n, i0, i1 int) bool { return false }

// ScaleFast reports false: no vector kernel in this build.
func ScaleFast(g []float64, s float64) bool { return false }

// AdamUpdateFast reports false: no vector kernel in this build.
func AdamUpdateFast(p, g, m, v []float64, b1, b2, bc1, bc2, lr, eps float64) bool { return false }
