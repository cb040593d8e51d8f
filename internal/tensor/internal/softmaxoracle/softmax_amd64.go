//go:build amd64

package softmaxoracle

//go:noescape
func vsoftmaxRowsAVX512(p, tmp *float64, rows, cols int64)

//go:noescape
func vsoftmaxRowsF32AVX512(p, tmp *float32, rows, cols int64)

func softmaxRows64(p, tmp []float64, rows, cols int) {
	_, _ = p[rows*cols-1], tmp[rows*cols-1]
	vsoftmaxRowsAVX512(&p[0], &tmp[0], int64(rows), int64(cols))
}

func softmaxRows32(p, tmp []float32, rows, cols int) {
	_, _ = p[rows*cols-1], tmp[rows*cols-1]
	vsoftmaxRowsF32AVX512(&p[0], &tmp[0], int64(rows), int64(cols))
}
