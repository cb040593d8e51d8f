package frameworks

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mpgraph/internal/graph"
)

// pinnedTraceDigests holds traceDigest of every framework × app cell on the
// R-MAT 9/21 graph under smallOpts(), recorded before CC, BFS and SSSP
// became one min-plus program and the three execution models shared one
// driver. A changed digest is a moved byte of the trace or of the result.
var pinnedTraceDigests = map[string]string{
	"gpop/bfs":        "5131d1b45232e49fbe70da17fe39e9b81fe7071bc2f687c0d7daa05a7b7a72ff",
	"gpop/cc":         "337943449b1e4689e5a6d8476a3a412625e58168fab3aa243d781e3bdd07768a",
	"gpop/pr":         "33c0d0e7f9b9f272f40e04a8be147a7f772e4ca682e36d9a8531c6a7c0728ec2",
	"gpop/sssp":       "44482b2677ea9678a41c94e0bbc18b8ec1e3b53ff7f88d8a8a41b713bad33ee0",
	"xstream/bfs":     "0cd3b8346360590b956fae1c65af4b3b5a88d7809485bd0c459ce374989ea162",
	"xstream/cc":      "9d3d6d7f71be8c9e740ef2726ba8eb9accc8ba2330bb1e505eb4982222ed34e2",
	"xstream/pr":      "d9ede563c34f03bd1cb5b658ed22c74f6649bcf24789fe6049ee9539a294bb2a",
	"xstream/sssp":    "93c4d489952370ebb15ff73e1641c0e29bf012902817399b47edac0d0d3876b2",
	"powergraph/cc":   "f43a5c494cfceda0b8fcceb15dfbc768f897d0cf3dfe7ca048901e59a25c100d",
	"powergraph/pr":   "068091f9fe40eb9acd49fe97cd8872b75c95e21d4beb780fce62c7b7e2875316",
	"powergraph/sssp": "32be84f39a9db794e92166259e8a72323ad97beccac8dacd3e8523606a451681",
	"powergraph/tc":   "e10a0534f5e4fce20ec555e249507b19506adb6c3d6e13d586b2d2c173ca5988",
}

// traceDigest generates the R-MAT 9/21 graph, runs app on it under f and
// returns the SHA-256 of every access field, the iteration starts, and the
// result (iterations, convergence, the bits of every value).
func traceDigest(t *testing.T, f Framework, app App) string {
	t.Helper()
	g, err := graph.GenerateRMAT(graph.DefaultRMAT(9, 21))
	if err != nil {
		t.Fatal(err)
	}
	tr, res, err := f.Run(g, app, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Accesses) == 0 {
		t.Fatal("empty trace")
	}
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	put(uint64(tr.NumPhases))
	h.Write([]byte(tr.Framework + "/" + tr.App))
	put(uint64(len(tr.Accesses)))
	for _, a := range tr.Accesses {
		put(a.Addr)
		put(a.PC)
		w := byte(0)
		if a.Write {
			w = 1
		}
		h.Write([]byte{a.Core, a.Phase, a.Gap, w})
	}
	put(uint64(len(tr.IterationStarts)))
	for _, s := range tr.IterationStarts {
		put(uint64(s))
	}
	put(uint64(res.Iterations))
	if res.Converged {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(res.Values)))
	for _, v := range res.Values {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRMATTraceDeterminism is the end-to-end guard behind the seededrand
// analyzer: the entire trace pipeline — R-MAT generation, framework
// execution, multi-core interleaving — must be a pure function of its
// explicit seeds. Every framework × app cell is generated twice; both runs
// must hash to the digest pinned in pinnedTraceDigests.
func TestRMATTraceDeterminism(t *testing.T) {
	cells := 0
	for _, f := range All() {
		for _, app := range f.Apps() {
			name := f.Name() + "/" + string(app)
			cells++
			t.Run(name, func(t *testing.T) {
				first, second := traceDigest(t, f, app), traceDigest(t, f, app)
				if first != second {
					t.Fatalf("same seed produced different traces: %s vs %s", first, second)
				}
				if want := pinnedTraceDigests[name]; first != want {
					t.Errorf("digest %s, pinned %s", first, want)
				}
			})
		}
	}
	if cells != len(pinnedTraceDigests) {
		t.Fatalf("%d cells, %d pinned digests", cells, len(pinnedTraceDigests))
	}
}
