package analysis

import (
	"go/ast"
	"go/build/constraint"
	"runtime"
	"strings"
)

// Build-constraint filtering. The loader mirrors `go vet`'s default
// behaviour of analysing the package as it builds on the host platform:
// files excluded by a GOOS/GOARCH filename suffix or a //go:build line are
// skipped, so platform pairs like gemm_batch_amd64.go / gemm_batch_noasm.go
// ("//go:build !amd64") do not type-check as redeclarations. Legacy
// "// +build" lines are not supported — the module uses //go:build only.

// knownOS / knownArch are the filename-suffix vocabularies from go/build.
// Only names in these sets act as constraints; gemm_test.go or delta_lstm.go
// suffixes stay inert.
var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

var unixOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

// matchFileName reports whether name's _GOOS/_GOARCH suffix (if any)
// matches the host, per the go/build filename rules: the last element is
// checked as an arch then an OS, and an arch may be preceded by an OS.
func matchFileName(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	base = strings.TrimSuffix(base, "_test")
	parts := strings.Split(base, "_")
	n := len(parts)
	if n < 2 {
		return true
	}
	if knownArch[parts[n-1]] {
		if parts[n-1] != runtime.GOARCH {
			return false
		}
		if n >= 3 && knownOS[parts[n-2]] && parts[n-2] != runtime.GOOS {
			return false
		}
		return true
	}
	if knownOS[parts[n-1]] && parts[n-1] != runtime.GOOS {
		return false
	}
	return true
}

// hostTag evaluates one build tag for the host platform. The analysis
// build never enables cgo; release tags (go1.N) are treated as satisfied
// since the running toolchain is at least the module's floor.
func hostTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return unixOS[runtime.GOOS]
	case "cgo":
		return false
	}
	return strings.HasPrefix(tag, "go1.")
}

// satisfiesGoBuild evaluates the file's //go:build line (the first one
// above the package clause) for the host platform. Files without one are
// unconstrained; a malformed line is left for the compiler to reject.
func satisfiesGoBuild(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true
			}
			return expr.Eval(hostTag)
		}
	}
	return true
}
