//go:build amd64

package tensor

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX512F reports whether the CPU and OS support the AVX-512 foundation
// instructions the batched-GEMM and vector-activation kernels use (zmm
// registers): AVX512F with XMM/YMM/opmask/zmm state enabled in XCR0.
func hasAVX512F() bool {
	maxID, _, _, _ := cpuid(0, 0) //mpgraph:allow errdrop -- leaf 0 only reports the max leaf in EAX
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0) //mpgraph:allow errdrop -- OSXSAVE lives in leaf 1 ECX alone
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	// XCR0 bits: SSE(1), AVX(2), opmask(5), zmm_hi256(6), hi16_zmm(7).
	xlo, _ := xgetbv()
	const needed = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xlo&needed != needed {
		return false
	}
	_, b7, _, _ := cpuid(7, 0) //mpgraph:allow errdrop -- AVX-512 feature bits live in leaf 7 EBX/ECX
	const avx512f = 1 << 16
	return b7&avx512f != 0
}
