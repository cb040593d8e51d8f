// Package nn builds the neural-network layer zoo used by the paper's models
// on top of the tensor autograd engine: Linear, Embedding, LayerNorm,
// scaled-dot-product self-attention, multi-head attention, the Transformer
// layer (MSA + FFN, Eq. 9-10), the multi-modality attention fusion layer
// (Eq. 8), and an LSTM for the baselines — plus the Adam optimizer,
// parameter (de)serialisation, and fixed-point weight quantization (Section
// 6.1).
package nn

import "mpgraph/internal/tensor"

// ModuleOf is anything owning parameter tensors of element type T.
type ModuleOf[T float32 | float64] interface {
	// Params returns the parameter tensors in a stable order.
	Params() []*tensor.Dense[T]
}

// Module is a float64 module: its parameters are the trainable ones.
type Module = ModuleOf[float64]

// CountParams sums the element counts of all parameters.
func CountParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// ZeroGrads clears gradients of all parameters.
func ZeroGrads(m Module) { ZeroParamGrads(m.Params()) }

// ZeroParamGrads clears the gradients of params: a loop that already holds
// m.Params() zeroes through it instead of re-walking the module tree.
func ZeroParamGrads(params []*tensor.Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// collect concatenates parameter lists of sub-modules.
func collect[T float32 | float64](ms ...ModuleOf[T]) []*tensor.Dense[T] {
	var out []*tensor.Dense[T]
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}
