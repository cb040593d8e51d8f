package nn

import (
	"fmt"
	"math"
)

// SimQuantReport summarises a SIMULATED fixed-point quantization pass: the
// weights are rounded onto a bits-wide grid but remain float64, so the model
// keeps running on the float kernels at the quantized model's accuracy.
// Storage numbers describe what the int representation would occupy; they do
// not claim the process stores ints. This is the whole of the 8-bit tier:
// models.Quantize* rounds a copy this way and scores it on the f32 forward
// (DESIGN.md §8).
type SimQuantReport struct {
	Bits         int
	PerChannel   bool
	Params       int
	StorageBytes int     // parameter storage at the quantized width
	MaxError     float64 // worst absolute rounding error introduced
	MeanError    float64
}

// Quantize rounds every parameter of m to a bits-wide symmetric fixed-point
// grid with one scale per tensor, in place — the simulated-quantization
// treatment of Section 6.1 ("representing the weights in the models using 8
// bits"). It returns the storage/error report. For matrices with
// mixed-magnitude columns, QuantizePerChannel gives a tighter grid.
func Quantize(m Module, bits int) (SimQuantReport, error) {
	return quantizeSim(m, bits, false)
}

// QuantizePerChannel is Quantize with one scale per output channel (matrix
// column) instead of one per tensor. A single wide column no longer dictates
// the grid for every other column, so MaxError on mixed-magnitude layers
// drops to each column's own half-step. Vectors (biases, gains) keep the
// per-tensor scale — they have one channel each. The storage report charges
// one extra float64 scale per channel.
func QuantizePerChannel(m Module, bits int) (SimQuantReport, error) {
	return quantizeSim(m, bits, true)
}

func quantizeSim(m Module, bits int, perChannel bool) (SimQuantReport, error) {
	if bits < 2 || bits > 16 {
		return SimQuantReport{}, fmt.Errorf("nn: quantize bits %d out of [2,16]", bits)
	}
	rep := SimQuantReport{Bits: bits, PerChannel: perChannel}
	levels := float64(int(1)<<(bits-1)) - 1
	var errSum float64
	scales := 0
	for _, p := range m.Params() {
		rep.Params += len(p.Data)
		if perChannel && p.Rows > 1 && p.Cols > 1 {
			scales += p.Cols
			for j := 0; j < p.Cols; j++ {
				var maxAbs float64
				for i := 0; i < p.Rows; i++ {
					if v := math.Abs(p.Data[i*p.Cols+j]); v > maxAbs {
						maxAbs = v
					}
				}
				scale := maxAbs / levels
				if scale == 0 {
					continue
				}
				for i := 0; i < p.Rows; i++ {
					idx := i*p.Cols + j
					q := math.Round(p.Data[idx]/scale) * scale
					e := math.Abs(q - p.Data[idx])
					if e > rep.MaxError {
						rep.MaxError = e
					}
					errSum += e
					p.Data[idx] = q
				}
			}
			continue
		}
		scales++
		scale := p.MaxAbs() / levels
		if scale == 0 {
			continue
		}
		for i, v := range p.Data {
			q := math.Round(v/scale) * scale
			e := math.Abs(q - v)
			if e > rep.MaxError {
				rep.MaxError = e
			}
			errSum += e
			p.Data[i] = q
		}
	}
	if rep.Params > 0 {
		rep.MeanError = errSum / float64(rep.Params)
	}
	rep.StorageBytes = (rep.Params*bits + 7) / 8
	if perChannel {
		rep.StorageBytes += 8 * scales
	}
	return rep, nil
}

// StorageBytes reports the parameter storage of m at the given bit width
// without modifying the model.
func StorageBytes(m Module, bits int) int {
	return (CountParams(m)*bits + 7) / 8
}
