package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mpgraph/internal/analysis"
)

// matcherSrc holds two noalloc findings on one function: a direct make,
// which carries no provenance, and a call into an allocating helper, which
// carries the fact chain that names the helper's make.
const matcherSrc = `package hot

//mpgraph:noalloc
func Hot(n int) []int {
	grow(n)
	return make([]int, n)
}

func grow(n int) []int { return make([]int, n) }
`

// matcherPattern is one pattern of .github/mpgraph-vet-matcher.json.
type matcherPattern struct {
	Regexp  string `json:"regexp"`
	File    int    `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message int    `json:"message"`
	Code    int    `json:"code"`
}

// TestProblemMatcherMatchesOutput holds the committed GitHub Actions problem
// matcher to what the driver prints: the human pattern must capture file,
// line, column, analyzer and message from RunAnalyzers lines, and the JSON
// pattern the same five from RunAnalyzersJSON lines with and without
// provenance.
func TestProblemMatcherMatchesOutput(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, ".github", "mpgraph-vet-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		ProblemMatcher []struct {
			Owner   string           `json:"owner"`
			Pattern []matcherPattern `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	patterns := map[string]matcherPattern{}
	for _, m := range cfg.ProblemMatcher {
		if len(m.Pattern) != 1 {
			t.Fatalf("matcher %s has %d patterns, want 1", m.Owner, len(m.Pattern))
		}
		patterns[m.Owner] = m.Pattern[0]
	}

	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":              "module mpgraph\n\ngo 1.22\n",
		"internal/hot/hot.go": matcherSrc,
	} {
		path := filepath.Join(mod, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	opt := analysis.Options{All: loader.Loaded()}
	diags, err := analysis.AnalyzeOpts(pkgs, suite, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 || len(diags[0].Provenance) == 0 || len(diags[1].Provenance) != 0 {
		t.Fatalf("want a provenance finding then a plain one, got %+v", diags)
	}

	var human, jsonl bytes.Buffer
	if _, err := analysis.RunAnalyzers(pkgs, suite, &human, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.RunAnalyzersJSON(pkgs, suite, &jsonl, opt); err != nil {
		t.Fatal(err)
	}
	humanLines := strings.Split(strings.TrimSuffix(human.String(), "\n"), "\n")
	jsonLines := strings.Split(strings.TrimSuffix(jsonl.String(), "\n"), "\n")
	if len(humanLines) != 2 || len(jsonLines) != 2 {
		t.Fatalf("want 2 lines per format, got human %q, json %q", humanLines, jsonLines)
	}

	check := func(owner, line string, d analysis.Diagnostic, unescape func(string) string) {
		t.Helper()
		p, ok := patterns[owner]
		if !ok {
			t.Fatalf("no matcher owned by %s", owner)
		}
		m := regexp.MustCompile(p.Regexp).FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s pattern does not match %s", owner, line)
			return
		}
		pos := loader.Fset.Position(d.Pos)
		for _, c := range []struct {
			field string
			group int
			want  string
		}{
			{"file", p.File, pos.Filename},
			{"line", p.Line, strconv.Itoa(pos.Line)},
			{"column", p.Column, strconv.Itoa(pos.Column)},
			{"analyzer", p.Code, d.Analyzer},
			{"message", p.Message, d.Message},
		} {
			if c.group <= 0 || c.group >= len(m) {
				t.Errorf("%s: %s group %d out of range", owner, c.field, c.group)
				continue
			}
			got := m[c.group]
			if c.field == "message" {
				got = unescape(got)
			}
			if got != c.want {
				t.Errorf("%s: %s captured %q, want %q from %s", owner, c.field, got, c.want, line)
			}
		}
	}
	for i, line := range humanLines {
		check("mpgraph-vet", line, diags[i], func(s string) string { return s })
	}
	for i, line := range jsonLines {
		check("mpgraph-vet-json", line, diags[i], func(s string) string {
			var msg string
			if err := json.Unmarshal([]byte(`"`+s+`"`), &msg); err != nil {
				t.Errorf("captured message %q is not a JSON string body: %v", s, err)
			}
			return msg
		})
	}
}
