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

// eachComment calls fn with every comment group of the module's Go files and
// its position. testdata and nested modules (benchmark/) are not the
// module's code.
func eachComment(t *testing.T, fn func(pos token.Position, text string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
			fn(fset.Position(cg.Pos()), cg.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDesignRefsResolve: every "DESIGN.md §N" (or "DESIGN §N") in a comment
// of the module's Go files names a "## N." heading of DESIGN.md, so
// renumbering or rewriting a section cannot leave a reference dangling. A
// reference may break across comment lines.
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
	eachComment(t, func(pos token.Position, text string) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			refs++
			if !sections[m[1]] {
				t.Errorf("%s: %q names no \"## %s.\" heading of DESIGN.md", pos, m[0], m[1])
			}
		}
	})
	if refs == 0 {
		t.Fatal("no DESIGN.md § reference found: the pattern no longer matches the comments")
	}
}

// roadmapItem matches a pointer to a ROADMAP item by number. The items are
// renumbered whenever the ROADMAP is rewritten, so a numbered pointer soon
// names another item: name the subject instead.
var roadmapItem = regexp.MustCompile(`ROADMAP\s+(?:open\s+)?item\s+\d+`)

// TestNoRoadmapItemNumbers: no Go comment of the module, and none of the
// Makefile, README, DESIGN and EXPERIMENTS, points at a ROADMAP item by its
// number. ROADMAP.md and CHANGES.md may: they are rewritten with the
// numbering.
func TestNoRoadmapItemNumbers(t *testing.T) {
	eachComment(t, func(pos token.Position, text string) {
		if m := roadmapItem.FindString(text); m != "" {
			t.Errorf("%s: %q points at a ROADMAP item by number", pos, m)
		}
	})
	for _, path := range []string{"Makefile", "README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range roadmapItem.FindAll(text, -1) {
			t.Errorf("%s: %q points at a ROADMAP item by number", path, m)
		}
	}
}
