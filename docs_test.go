package mpgraph

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
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

// designDocs are the files besides Go comments that point into DESIGN.md.
// ROADMAP.md and CHANGES.md are not among them: they are rewritten with
// the numbering, and a changelog's old pointers name the old chapters.
var designDocs = []string{
	"README.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml",
	".claude/skills/verify/SKILL.md",
}

// designRef matches a pointer into DESIGN.md: "DESIGN.md §N" or "DESIGN §N",
// optionally followed by a quoted name of a part of that chapter. A pointer
// may break across comment lines, so a line break may carry a "#" or "//"
// comment marker.
var designRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|#|/)+§\s*(\d+[a-z]?)(?:,?(?:\s|#|/)*"([^"]+)")?`)

// designChapters splits DESIGN.md into its "## N." chapters, keyed by N, and
// lists each chapter's named parts: its "###" headings and the bold or
// italic leads that start a line.
func designChapters(t *testing.T) map[string][]string {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^## (\d+[a-z]?)\. `)
	lead := regexp.MustCompile(`(?m)^(?:### (.+)|\*\*([^*]+)\*\*|\*([^*]+)\*)`)
	chapters := map[string][]string{}
	idx := heading.FindAllSubmatchIndex(design, -1)
	for i, m := range idx {
		end := len(design)
		if i+1 < len(idx) {
			end = idx[i+1][0]
		}
		names := []string{}
		for _, l := range lead.FindAllSubmatch(design[m[1]:end], -1) {
			names = append(names, string(l[1])+string(l[2])+string(l[3]))
		}
		chapters[string(design[m[2]:m[3]])] = names
	}
	return chapters
}

// checkDesignRef reports a pointer whose chapter does not exist, or whose
// quoted name starts none of that chapter's named parts.
func checkDesignRef(t *testing.T, chapters map[string][]string, where string, m []string) {
	t.Helper()
	names, ok := chapters[m[1]]
	if !ok {
		t.Errorf("%s: %q names no \"## %s.\" heading of DESIGN.md", where, m[0], m[1])
		return
	}
	if m[2] == "" {
		return
	}
	name := strings.Join(strings.FieldsFunc(m[2], func(r rune) bool {
		return unicode.IsSpace(r) || r == '#' || r == '/'
	}), " ")
	for _, n := range names {
		if strings.HasPrefix(n, name) {
			return
		}
	}
	t.Errorf("%s: %q: chapter %s of DESIGN.md has no \"### %s\" heading and no paragraph led by **%s** or *%s*", where, m[0], m[1], name, name, name)
}

// TestDesignRefsResolve: every pointer into DESIGN.md, in a comment of the
// module's Go files or in one of designDocs or scripts/*.sh, names a
// "## N." chapter of DESIGN.md, and a quoted name after the number names a
// "###" heading or a paragraph lead of that chapter. So renumbering a
// chapter or renaming a part cannot leave a pointer dangling.
func TestDesignRefsResolve(t *testing.T) {
	chapters := designChapters(t)
	refs, named := 0, 0
	check := func(text string, where func(offset int) string) {
		for _, ix := range designRef.FindAllStringSubmatchIndex(text, -1) {
			m := make([]string, 3)
			for g := range m {
				if ix[2*g] >= 0 {
					m[g] = text[ix[2*g]:ix[2*g+1]]
				}
			}
			refs++
			if m[2] != "" {
				named++
			}
			checkDesignRef(t, chapters, where(ix[0]), m)
		}
	}
	eachComment(t, func(pos token.Position, text string) {
		check(text, func(int) string { return pos.String() })
	})
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(append([]string{}, designDocs...), scripts...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check(string(text), func(offset int) string {
			return fmt.Sprintf("%s:%d", path, 1+bytes.Count(text[:offset], []byte("\n")))
		})
	}
	if refs == 0 || named == 0 {
		t.Fatalf("%d DESIGN.md § references, %d with a quoted name: the pattern no longer matches", refs, named)
	}
}

// TestInventoryListsEveryDirectory: the tree block of DESIGN.md §3 lists
// every directory under internal/, cmd/ and examples/, and nothing else
// under them, so the inventory cannot fall behind the tree.
func TestInventoryListsEveryDirectory(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	chapter := regexp.MustCompile("(?s)\n## 3\\. [^\n]*\n.*?```\n(.*?)```").FindSubmatch(design)
	if chapter == nil {
		t.Fatal("DESIGN.md §3 has no tree block")
	}
	// A group is a line "  internal/" at some indent; its entries are the
	// lines indented deeper whose first word ends in "/".
	entry := regexp.MustCompile(`^( *)(\S+)/(?:\s|$)`)
	listed := map[string]map[string]bool{}
	group, groupIndent := "", 0
	for _, line := range strings.Split(string(chapter[1]), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		switch indent := len(m[1]); {
		case m[2] == "internal" || m[2] == "cmd" || m[2] == "examples":
			group, groupIndent = m[2], indent
			listed[group] = map[string]bool{}
		case group != "" && indent > groupIndent:
			listed[group][m[2]] = true
		default:
			group = ""
		}
	}
	for _, dir := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		onDisk := map[string]bool{}
		for _, e := range entries {
			if e.IsDir() {
				onDisk[e.Name()] = true
				if !listed[dir][e.Name()] {
					t.Errorf("DESIGN.md §3: %s/%s/ is missing from the tree block", dir, e.Name())
				}
			}
		}
		for name := range listed[dir] {
			if !onDisk[name] {
				t.Errorf("DESIGN.md §3 lists %s/%s/, which does not exist", dir, name)
			}
		}
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
