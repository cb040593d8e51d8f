package experiments

import (
	"fmt"
	"io"
	"strings"

	"mpgraph/internal/frameworks"
	"mpgraph/internal/graph"
	"mpgraph/internal/models"
	"mpgraph/internal/nn"
)

// TableFrameworks regenerates Table 1: the benchmark frameworks, their
// paradigms, phase counts, and applications.
func TableFrameworks(w io.Writer, r *Runner) error {
	section(w, "Table 1: Benchmark Graph Frameworks and Applications")
	t := &Table{Header: []string{"Framework", "Paradigm", "N", "Applications"}}
	paradigm := map[string]string{
		"gpop":       "Scatter-Gather (partition-centric)",
		"xstream":    "Scatter-Gather (edge-centric)",
		"powergraph": "GAS",
	}
	for _, fw := range frameworks.All() {
		apps := make([]string, len(fw.Apps()))
		for i, a := range fw.Apps() {
			apps[i] = strings.ToUpper(string(a))
		}
		t.Add(fw.Name(), paradigm[fw.Name()], d(fw.NumPhases()), strings.Join(apps, ", "))
	}
	t.Print(w)
	return nil
}

// TableDatasets regenerates Table 2: the benchmark graphs with their
// (scaled) sizes and the structural stats the generators preserve.
func TableDatasets(w io.Writer, r *Runner) error {
	section(w, fmt.Sprintf("Table 2: Graph Datasets (reproduction scale 2^%d)", r.Opt.graphScale()))
	t := &Table{Header: []string{"Dataset", "Class", "Vertices", "Edges", "MaxDeg", "Gini", "Local"}}
	for _, spec := range graph.Datasets {
		g, err := r.Graph(spec.Name)
		if err != nil {
			return err
		}
		s := graph.ComputeStats(g)
		t.Add(spec.Name, spec.Class.String(), d(s.NumVertices), d(s.NumEdges),
			d(s.MaxOutDegree), f3(s.GiniOutDegree), f3(s.LocalEdgeFraction))
	}
	t.Print(w)
	return nil
}

// TableSimParams regenerates Table 3: the simulator configuration in use.
func TableSimParams(w io.Writer, r *Runner) error {
	section(w, fmt.Sprintf("Table 3: Simulation Parameters (scale %q)", r.Opt.Scale))
	cfg := r.Opt.SimConfig()
	t := &Table{Header: []string{"Parameter", "Value"}}
	t.Add("CPU", fmt.Sprintf("%d cores, %d-wide, %d outstanding misses", cfg.Cores, cfg.IssueWidth, cfg.MaxOutstanding))
	t.Add("L1 D-cache", fmt.Sprintf("%d KB, %d-way, %d-cycle", cfg.L1Sets*cfg.L1Ways*64/1024, cfg.L1Ways, cfg.L1Latency))
	t.Add("L2 cache", fmt.Sprintf("%d KB, %d-way, %d-cycle", cfg.L2Sets*cfg.L2Ways*64/1024, cfg.L2Ways, cfg.L2Latency))
	t.Add("LL cache", fmt.Sprintf("%d KB, %d-way, %d-cycle", cfg.LLCSets*cfg.LLCWays*64/1024, cfg.LLCWays, cfg.LLCLatency))
	t.Add("DRAM", fmt.Sprintf("%d-cycle latency, %d cycles/block channel occupancy", cfg.DRAMLatency, cfg.DRAMServiceCycles))
	t.Print(w)
	return nil
}

// TableAMMAConfig regenerates Table 5: the AMMA model configuration and the
// resulting parameter counts.
func TableAMMAConfig(w io.Writer, r *Runner) error {
	section(w, fmt.Sprintf("Table 5: AMMA model configuration (scale %q)", r.Opt.Scale))
	cfg := r.Opt.ModelConfig()
	t := &Table{Header: []string{"Configuration", "Value"}}
	t.Add("History T", d(cfg.HistoryT))
	t.Add("Look-forward F", d(cfg.LookForwardF))
	t.Add("Attention dimension", d(cfg.AttnDim))
	t.Add("Fusion dimension", d(cfg.FusionDim))
	t.Add("Transformer dimension", d(cfg.FusionDim))
	t.Add("Transformer layers", d(cfg.TransLayers))
	t.Add("Transformer heads", d(cfg.Heads))
	t.Add("Address segmentation", fmt.Sprintf("%d x %d bits", cfg.NumSegments, cfg.SegmentBits))
	t.Add("Delta range", fmt.Sprintf("±%d blocks", cfg.DeltaRange))
	t.Add("Page vocabulary", d(cfg.PageVocab))

	pcs := models.BuildVocab(nil, cfg.PCVocab)
	pages := models.BuildVocab(nil, cfg.PageVocab)
	delta := models.NewAMMADelta(cfg, pcs, 0, cfg.Seed)
	page := models.NewAMMAPage(cfg, pages, pcs, 0, cfg.Seed)
	t.Add("Spatial predictor params", d(nn.CountParams(delta)))
	t.Add("Temporal predictor params", d(nn.CountParams(page)))
	t.Print(w)
	return nil
}

// TableComplexity regenerates Table 8: params, OPs, critical path, and IPC
// improvement for the ML-based prefetchers, including a compressed MPGraph.
func TableComplexity(w io.Writer, r *Runner) error {
	wl := r.Opt.Workloads()[0]
	s, err := r.Suite(wl, LSTMDelta, LSTMPage, AttnDelta)
	if err != nil {
		return err
	}
	section(w, fmt.Sprintf("Table 8: Computational complexity (workload %s)", wl))
	cfg := s.Cfg

	// IPC improvement of each ML prefetcher on the representative workload.
	ipc := map[string]float64{}
	pfs, err := r.Prefetchers(wl)
	if err != nil {
		return err
	}
	for _, pf := range pfs {
		switch pf.Name() {
		case "delta-lstm", "voyager", "transfetch", "mpgraph":
			m, base, err := r.Simulate(wl, pf)
			if err != nil {
				return err
			}
			ipc[pf.Name()] = m.IPCImprovement(base)
		}
	}

	t := &Table{Header: []string{"Model", "Param(K)", "OPs(M)", "CriticalPath", "Class", "IPCImpv"}}
	row := func(name string, c models.Complexity, ipcImpv float64) {
		t.Add(name, fmt.Sprintf("%.1f", float64(c.Params)/1000), fmt.Sprintf("%.2f", c.OPs),
			d(c.CriticalPath), c.CriticalPathClass, pct(ipcImpv))
	}
	row("Delta-LSTM", models.LSTMComplexity(cfg, s.LSTMDelta, cfg.NumSegments+1, cfg.DeltaClasses()), ipc["delta-lstm"])
	// Voyager: two LSTMs.
	voy := models.LSTMComplexity(cfg, s.LSTMPage, 32, cfg.PageVocab)
	voyD := models.LSTMComplexity(cfg, s.LSTMDelta, cfg.NumSegments+1, cfg.DeltaClasses())
	voy.Params += voyD.Params
	voy.OPs += voyD.OPs
	row("Voyager", voy, ipc["voyager"])
	row("TransFetch", models.AMMAComplexity(cfg, s.AttnDelta, cfg.DeltaClasses()), ipc["transfetch"])
	// MPGraph: per-phase delta + page pairs (one pair active at a time; the
	// storage is N pairs).
	mp := models.AMMAComplexity(cfg, s.PSDelta, cfg.DeltaClasses())
	mpPage := models.AMMAComplexity(cfg, s.PSPage, cfg.PageVocab)
	mp.Params += mpPage.Params
	mp.OPs += mpPage.OPs / float64(len(s.PSPage.Models))
	row("MPGraph", mp, ipc["mpgraph"])

	// Compressed MPGraph: half-width student dims (the Fig. 13 pipeline).
	small := cfg
	small.AttnDim, small.FusionDim, small.Heads = cfg.AttnDim/4, cfg.FusionDim/4, 2
	if small.Heads > small.FusionDim {
		small.Heads = 1
	}
	smallDelta := models.NewAMMADelta(small, s.Train.PCs, 0, cfg.Seed)
	smallPage := models.NewBinaryPage(small, s.Train.Pages, s.Train.PCs, cfg.Seed)
	cm := models.AMMAComplexity(small, smallDelta, small.DeltaClasses())
	cmp := models.AMMAComplexity(small, smallPage, smallPage.Bits())
	cm.Params += cmp.Params
	cm.OPs += cmp.OPs
	ratio := float64(mp.Params) / float64(cm.Params)
	row(fmt.Sprintf("MPGraph (%.1fx)", ratio), cm, ipc["mpgraph"]) // compressed accuracy ≈ full per Fig. 13
	t.Print(w)
	return nil
}
