package kernelgen

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the tensor package's kernel .s files")

// TestAsmIsGenerated: each of the tensor package's kernel files is exactly
// File's output, in full, so the generator stays the source of every kernel,
// and File writes no TEXT symbol above the generated marker. With
// -update it rewrites them instead (go test ./internal/tensor/internal/kernelgen
// -update; then go test ./internal/tensor).
func TestAsmIsGenerated(t *testing.T) {
	for _, c := range []struct {
		path string
		f32  bool
	}{
		{"../../gemm_batch_amd64.s", false},
		{"../../gemm_batch_f32_amd64.s", true},
	} {
		want := File(c.f32)
		if head, _, _ := strings.Cut(want, GeneratedMarker); strings.Contains(head, "TEXT") {
			t.Fatalf("%s: File writes a TEXT symbol above %q", c.path, GeneratedMarker)
		}
		if *update {
			if err := os.WriteFile(c.path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		src, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(src) != want {
			t.Errorf("%s differs from the generator's output (edit kernelgen and rerun with -update)", c.path)
		}
	}
}
