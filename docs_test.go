package mpgraph

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDesignRefsResolve: every "DESIGN.md §N" (or "DESIGN §N") in a comment
// of the module's Go files names a "## N." heading of DESIGN.md, so
// renumbering or rewriting a section cannot leave a reference dangling. A
// reference may break across comment lines. testdata and nested modules
// (benchmark/) are not the module's code.
func TestDesignRefsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. `).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	ref := regexp.MustCompile(`DESIGN(?:\.md)?\s+§\s*(\d+[a-z]?)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || d.Name()[0] == '.' {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, m := range ref.FindAllStringSubmatch(cg.Text(), -1) {
				refs++
				if !sections[m[1]] {
					t.Errorf("%s: %q names no \"## %s.\" heading of DESIGN.md", fset.Position(cg.Pos()), m[0], m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("no DESIGN.md § reference found: the pattern no longer matches the comments")
	}
}
