package attngen

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the generated kernels in the tensor .s files")

// TestAsmIsGenerated: the attention kernels committed in the tensor package's
// .s files are exactly Kernel's output, so the generator stays their source.
// With -update it rewrites them instead (go test
// ./internal/tensor/internal/attngen -update; then go test ./internal/tensor).
func TestAsmIsGenerated(t *testing.T) {
	for _, c := range []struct {
		path string
		f32  bool
		fn   string
	}{
		{"../../gemm_batch_amd64.s", false, "attnBlockAsm"},
		{"../../gemm_batch_f32_amd64.s", true, "attnBlockF32Asm"},
	} {
		src, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		head, tail, found := strings.Cut(string(src), GeneratedMarker)
		if !found {
			t.Fatalf("%s: no %q line", c.path, GeneratedMarker)
		}
		want := Kernel(c.f32)
		if *update {
			if err := os.WriteFile(c.path, []byte(head+want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got := GeneratedMarker + tail; got != want {
			t.Errorf("%s: the %s text differs from the generator's (edit attngen and rerun with -update)", c.path, c.fn)
		}
	}
}
