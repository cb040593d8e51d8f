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
	return graphTraceDigest(t, g, f, app)
}

// graphTraceDigest is traceDigest on a given graph.
func graphTraceDigest(t *testing.T, g *graph.Graph, f Framework, app App) string {
	t.Helper()
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

// pinnedDatasetDigests holds graphTraceDigest of the bfs, cc and sssp cells
// of every framework on the roadCA and soclj generators at scale 9 under
// smallOpts(), recorded before sites became integer ids and the gap and
// merge draws left rand.Rand. They hold the min-plus programs to their
// bytes on a low-degree lattice and a skewed power-law graph, which R-MAT
// alone does not.
var pinnedDatasetDigests = map[string]string{
	"roadCA/gpop/bfs":        "2768803c8927b0b900e12ffeafddd7d45d64ce232b35194ae7c8e0a23df856ca",
	"roadCA/gpop/cc":         "03db0e5529e2cd230bb9c35cc85b6a9bfa5493d5fe36b06272864fa7a7711759",
	"roadCA/gpop/sssp":       "e626fd9275d769d7e2ec84834c9ab62d185e6e84c80d8e6a49b7bdb8a7388783",
	"roadCA/xstream/bfs":     "9c9a564d63e120085c8c0eb799cf4a61a899eb920f6c0b8fc1fdded8fc79594b",
	"roadCA/xstream/cc":      "e32f4bf1e82df01d314fa27b1fc91564da995ef1824ba3c27e4a826788f3d94b",
	"roadCA/xstream/sssp":    "c3e4e1508e277489b9f5666feeb99b5ac0be4531ef9f6041db5a917270df2504",
	"roadCA/powergraph/cc":   "c343079d9a0c38c4bbdb5de699114e80ffbb242d61f111cb3196acf62dc35114",
	"roadCA/powergraph/sssp": "1c84edde3ed166b1ecc4008836476641490350183db20acd935d65db9020d5f3",
	"soclj/gpop/bfs":         "6b3069f9f3f057488d4df1a3bb6f9145f774159aa327a1ca18efc43ecd3c159a",
	"soclj/gpop/cc":          "7307f9748e6a124f8fd381e4eb2d1b810b6e014ae4165e478de8138f3b0bee97",
	"soclj/gpop/sssp":        "9dc0f4d546262f89ac086fc8a9e2e68dda7209c27b48ee506f691eed3ed2ade8",
	"soclj/xstream/bfs":      "765c642837a128115d4925d65b852552a8c207de337e79faf0894915a19bcfe7",
	"soclj/xstream/cc":       "03668801a51dd7a0fd8a039352df243963b648310c9348063ea56ad837559651",
	"soclj/xstream/sssp":     "6120fcdb7b97f5d017dd27fffba2e386bf9bc945f12d06c57f2b4f1e1a8cd25a",
	"soclj/powergraph/cc":    "1f5af6f2c5a1de09022dfae3a0c5a59b36f7c547e351a0fa092bfe99d986f2ef",
	"soclj/powergraph/sssp":  "7fe01eed9e8b34edbe7dde1179ed5f96a367eeadaad269a2809dbf578076b98c",
}

// TestDatasetTraceDigests checks every pinnedDatasetDigests cell.
func TestDatasetTraceDigests(t *testing.T) {
	cells := 0
	for _, name := range []string{"roadCA", "soclj"} {
		spec, err := graph.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.GenerateScale(9)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range All() {
			for _, app := range []App{BFS, CC, SSSP} {
				if !supportsApp(f, app) {
					continue
				}
				cell := name + "/" + f.Name() + "/" + string(app)
				cells++
				t.Run(cell, func(t *testing.T) {
					got := graphTraceDigest(t, g, f, app)
					if want := pinnedDatasetDigests[cell]; got != want {
						t.Errorf("digest %s, pinned %s", got, want)
					}
				})
			}
		}
	}
	if cells != len(pinnedDatasetDigests) {
		t.Fatalf("%d cells, %d pinned digests", cells, len(pinnedDatasetDigests))
	}
}
