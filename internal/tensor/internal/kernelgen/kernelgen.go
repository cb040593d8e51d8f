// Package kernelgen writes the AVX-512F inference kernels of internal/tensor:
// gemm_batch_amd64.s (float64) and gemm_batch_f32_amd64.s (float32) are File's
// output, from GeneratedMarker on, below their build tag and #include. Each
// kernel is one template over a dtype — element size, lanes per zmm, mask
// width, mnemonic suffix and the exp constants — so the two precisions of a
// kernel cannot drift apart, and a new tile shape is written once (DESIGN.md
// §8, "Kernel generator"). The package's test holds the committed files to
// File and, run with -update, rewrites them.
package kernelgen

import (
	"fmt"
	"strings"
)

// GeneratedMarker opens the generated part of each .s file; everything from
// it to the end of the file is File's output.
const GeneratedMarker = "// Code generated by internal/tensor/internal/kernelgen; DO NOT EDIT."

// header is all of a kernel file above GeneratedMarker.
const header = "//go:build amd64\n\n#include \"textflag.h\"\n\n"

// A dtype is what a template knows of an element type.
type dtype struct {
	ty     string // Go element type
	suffix string // in a kernel's name: "" or "F32"
	size   int    // element bytes
	shift  int    // log2 of size
	lanes  int    // elements per zmm
	lg     int    // log2 of lanes
	p, s   string // packed and scalar mnemonic suffixes
	mov    string // unaligned zmm load and store
	bcast  string // broadcast of one element
	konst  string // prefix of the constant tables' names

	// exp (EXPZ0): the argument's clamp, Cody–Waite's split of ln 2, the
	// Taylor polynomial's degree.
	clamp, ln2hi, ln2lo string
	degree              int
	neginf              string // -Inf's bits, the running max's start
	// perms are the in-register shuffles of a horizontal fold, one per
	// halving after its two extracts.
	perms []string
}

var (
	f64 = dtype{
		ty: "float64", size: 8, shift: 3, lanes: 8, lg: 3,
		p: "PD", s: "SD", mov: "VMOVUPD", bcast: "VBROADCASTSD", konst: "v",
		clamp: "708.0", ln2hi: "0.693147180369123816490", ln2lo: "1.90821492927058770002e-10",
		degree: 11, neginf: "0xfff0000000000000",
		perms: []string{"VPERMILPD     $1"},
	}
	// The f32 ln 2 split is fdlibm's float variant; the clamp keeps exp
	// below float32 overflow at ~88.7, and degree 8 puts the truncation term
	// (r^9/9! at |r| <= ln2/2) three orders below f32 eps.
	f32 = dtype{
		ty: "float32", suffix: "F32", size: 4, shift: 2, lanes: 16, lg: 4,
		p: "PS", s: "SS", mov: "VMOVUPS", bcast: "VBROADCASTSS", konst: "f",
		clamp: "87.0", ln2hi: "0.693359375", ln2lo: "-2.12194440e-4",
		degree: 8, neginf: "0xff800000",
		perms: []string{"VPERMILPS     $0x4E", "VPERMILPS     $0xB1"},
	}
)

// taylor[k] is 1/k!, the exp polynomial's coefficient of r^k.
var taylor = [...]string{
	2: "0.5", 3: "0.16666666666666666", 4: "0.041666666666666664",
	5: "0.008333333333333333", 6: "0.001388888888888889", 7: "0.0001984126984126984",
	8: "2.48015873015873e-05", 9: "2.7557319223985893e-06", 10: "2.755731922398589e-07",
	11: "2.505210838544172e-08",
}

// emitter collects the lines of a file.
type emitter struct{ lines []string }

func (o *emitter) e(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// File returns the text of gemm_batch_f32_amd64.s (f32) or
// gemm_batch_amd64.s.
func File(f32Kernels bool) string {
	d := f64
	if f32Kernels {
		d = f32
	}
	o := &emitter{}
	o.e("%s", GeneratedMarker)
	o.e("// Edit the generator, then go test ./internal/tensor/internal/kernelgen -update.")
	o.e("")
	panel4(o, d)
	panel1(o, d)
	panel9(o, d)
	constants(o, d)
	vact(o, d)
	layerNorm(o, d)
	attention(o, d)
	lstm(o, d)
	rows(o, d)
	meanRows(o, d)
	firstAbove(o, d)
	if f32Kernels {
		sigmoidWiden(o, d)
	}
	return header + strings.Join(o.lines, "\n") + "\n"
}

// constants emits exp's tables, one element each.
func constants(o *emitter, d dtype) {
	data := func(name, v string) {
		o.e("DATA %s%s<>+0(SB)/%d, $%s", d.konst, name, d.size, v)
		o.e("GLOBL %s%s<>(SB), RODATA, $%d", d.konst, name, d.size)
	}
	data("clamplo", "-"+d.clamp)
	data("clamphi", d.clamp)
	data("log2e", "1.44269504088896340736")
	data("ln2hi", d.ln2hi)
	data("ln2lo", d.ln2lo)
	data("neg40", "-40.0")
	data("pos40", "40.0")
	data("one", "1.0")
	data("two", "2.0")
	for k := d.degree; k >= 2; k-- {
		data(fmt.Sprintf("c%d", k), taylor[k])
	}
	data("neginf", d.neginf)
	o.e("")
}

// expConsts loads what expZ0 reads into Z12..Z18, Z21 and the top
// degree-3 registers below Z31 (the two highest coefficients in Z14, Z15);
// withClamps adds the sigmoid/tanh clamps ±40 in Z19, Z20 and 2 in Z22.
func expConsts(o *emitter, d dtype, withClamps bool) {
	b := func(name string, z int) { o.e("\t%s %s%s<>(SB), Z%d", d.bcast, d.konst, name, z) }
	b("clamplo", 12)
	b("clamphi", 13)
	b(fmt.Sprintf("c%d", d.degree), 14)
	b(fmt.Sprintf("c%d", d.degree-1), 15)
	b("log2e", 16)
	b("ln2hi", 17)
	b("ln2lo", 18)
	b("one", 21)
	for k, z := d.degree-2, 34-d.degree; k >= 2; k, z = k-1, z+1 {
		b(fmt.Sprintf("c%d", k), z)
	}
	if withClamps {
		b("neg40", 19)
		b("pos40", 20)
		b("two", 22)
	}
}

// expZ0 computes Z4 = exp(Z0), clobbering Z0..Z3 (expZ on those registers).
func expZ0(o *emitter, d dtype) { expZ(o, d, false, "Z0", "Z1", "Z2", "Z3", "Z4") }

// expZ computes out = exp(x) in the registers it is given, clobbering x, n, r
// and p (out may be any of them): the clamps with x as the second source (so
// a NaN stays NaN), n = round(x·log2e) to nearest even, r = x - n·ln2hi -
// n·ln2lo, the Taylor polynomial in r by Horner FMAs into p, and VSCALEF for
// the 2^n. The clamps read expConsts' Z12 and Z13; every other constant is
// its expConsts register, or with mem an embedded broadcast of its table
// entry, the same value in the same operand.
func expZ(o *emitter, d dtype, mem bool, x, n, r, p, out string) {
	k := func(mn, name string, z int, rest string) {
		if mem {
			o.e("\t%s.BCST %s%s<>(SB), %s", mn, d.konst, name, rest)
			return
		}
		o.e("\t%-12s Z%d, %s", mn, z, rest)
	}
	o.e("\tVMIN%s       %s, Z13, %s", d.p, x, x)
	o.e("\tVMAX%s       %s, Z12, %s", d.p, x, x)
	k("VMUL"+d.p, "log2e", 16, x+", "+n)
	o.e("\tVRNDSCALE%s  $0, %s, %s", d.p, n, n)
	o.e("\tVMOVA%s      %s, %s", d.p, x, r)
	k("VFNMADD231"+d.p, "ln2hi", 17, n+", "+r)
	k("VFNMADD231"+d.p, "ln2lo", 18, n+", "+r)
	if mem {
		o.e("\t%s %sc%d<>(SB), %s", d.bcast, d.konst, d.degree, p)
	} else {
		o.e("\tVMOVA%s      Z14, %s", d.p, p)
	}
	k("VFMADD213"+d.p, fmt.Sprintf("c%d", d.degree-1), 15, r+", "+p)
	for z := 34 - d.degree; z <= 30; z++ {
		k("VFMADD213"+d.p, fmt.Sprintf("c%d", 32-z), z, r+", "+p)
	}
	k("VFMADD213"+d.p, "one", 21, r+", "+p)
	k("VFMADD213"+d.p, "one", 21, r+", "+p)
	o.e("\tVSCALEF%s    %s, %s, %s", d.p, n, p, out)
}

// interleave emits the lines of the chains round-robin, one of each in turn,
// so that independent chains issue side by side.
func interleave(o *emitter, chains ...func(*emitter)) {
	var lines [][]string
	for _, c := range chains {
		sub := &emitter{}
		c(sub)
		lines = append(lines, sub.lines)
	}
	for i := 0; ; i++ {
		done := true
		for _, l := range lines {
			if i < len(l) {
				o.lines = append(o.lines, l[i])
				done = false
			}
		}
		if done {
			return
		}
	}
}

// hreduce folds the lanes of Z<r> into lane 0 of X<r> with op, lane i with
// lane i + lanes/2, then i + lanes/4, ..., with Z<t> as scratch.
func hreduce(o *emitter, d dtype, op string, r, t int) {
	o.e("\tVEXTRACTF64X4 $1, Z%d, Y%d", r, t)
	o.e("\t%s Y%d, Y%d, Y%d", op, t, r, r)
	o.e("\tVEXTRACTF128  $1, Y%d, X%d", r, t)
	o.e("\t%s X%d, X%d, X%d", op, t, r, r)
	for _, perm := range d.perms {
		o.e("\t%s, X%d, X%d", perm, r, t)
		o.e("\t%s X%d, X%d, X%d", op, t, r, r)
	}
}

// tailMask sets K1 to the lanes of a row's last chunk (1..lanes of them) and
// chunks to the number of full chunks before it; clobbers AX, CX.
func tailMask(o *emitter, d dtype, cols, chunks string) {
	o.e("\tLEAQ  -1(%s), %s", cols, chunks)
	o.e("\tSHRQ  $%d, %s", d.lg, chunks)
	o.e("\tMOVQ  %s, AX", chunks)
	o.e("\tSHLQ  $%d, AX", d.lg)
	o.e("\tMOVQ  %s, CX", cols)
	o.e("\tSUBQ  AX, CX")
	lowMask(o, "K1")
}

// lowMask sets mask register k to the CX low bits; clobbers AX.
func lowMask(o *emitter, k string) {
	o.e("\tMOVQ  $1, AX")
	o.e("\tSHLQ  CX, AX")
	o.e("\tDECQ  AX")
	o.e("\tKMOVW AX, %s", k)
}

// zero clears Z<lo> .. Z<hi-1>.
func zero(o *emitter, lo, hi int) {
	for i := lo; i < hi; i++ {
		o.e("\tVPXORQ Z%d, Z%d, Z%d", i, i, i)
	}
}

// regs names Z lo .. Z hi-1.
func regs(lo, hi int) []string {
	var r []string
	for i := lo; i < hi; i++ {
		r = append(r, fmt.Sprintf("Z%d", i))
	}
	return r
}
