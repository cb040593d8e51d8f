package tensor

import "math"

// AdamStep holds the scalars one nn.Adam step shares across its parameters:
// what AdamUpdateFast needs besides the element slices.
type AdamStep struct {
	Beta1, Beta2 float64
	BC1, BC2     float64 // the bias corrections 1-β1^t and 1-β2^t
	// R1 and R2 are 1/BC1 and 1/BC2, each an unevaluated sum hi+lo
	// (SplitReciprocal): where the kernel's quotient estimates start. The
	// kernel keeps a quotient only where it proves it correctly rounded, so
	// other values cost speed, never bits.
	R1, R2         [2]float64
	LR, Eps, Scale float64
}

// SplitReciprocal returns 1/b as hi + lo, hi = RN(1/b) and lo ≈ 1/b - hi,
// so that RN(a·hi + RN(a·lo)), one multiply and one FMA, is RN(a/b) for all
// but a vanishing share of a.
func SplitReciprocal(b float64) [2]float64 {
	hi := 1 / b
	return [2]float64{hi, math.FMA(-hi, b, 1) * hi}
}
