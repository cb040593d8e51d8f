//go:build !amd64 || amd64.v3

package tensor

// The training kernels exist only where the scalar bodies are their exact
// twins (train_amd64.go); here every leaf sends its caller to the scalar body.

// goUnfused is false: at GOAMD64=v3 the compiler may fuse x*y+z, and off
// amd64 there is no kernel to gate.
const goUnfused = false

//mpgraph:noalloc
func gemmRowsFast[T float32 | float64](out, a, b []T, k, n, r0, r1 int) bool { return false }

func gemmTNRowsFast(out, a, b []float64, m, r, n, i0, i1 int) bool { return false }

func gemmNTRowsFast(out, a, b []float64, k, n, r0, r1 int) int { return 0 }

func addVecFast(o, x, y []float64) bool          { return false }
func maddVecFast(o, x, y []float64) bool         { return false }
func axpyVecFast(o, x []float64, s float64) bool { return false }
func reluGradVecFast(o, x, y []float64) bool     { return false }

// SumSquaresFast reports false: no vector kernel in this build.
func SumSquaresFast(g []float64) (float64, bool) { return 0, false }

// SumSquaresSeqFast reports false: no vector kernel in this build.
func SumSquaresSeqFast(total float64, g []float64) (float64, bool) { return 0, false }

// AdamUpdateFast reports false: no vector kernel in this build.
func AdamUpdateFast(p, g, m, v []float64, s *AdamStep) (int, bool) { return 0, false }
