package experiments

import (
	"io"

	"mpgraph/internal/models"
)

// TableDeltaPrediction regenerates Table 6: F1-score of spatial delta
// prediction for LSTM, Attention, AMMA, AMMA-PI, and AMMA-PS on every
// workload.
func TableDeltaPrediction(w io.Writer, r *Runner) error {
	section(w, "Table 6: F1-Score of Spatial Delta Prediction")
	t := &Table{Header: []string{"Workload", "LSTM", "Attention", "AMMA", "AMMA-PI", "AMMA-PS"}}
	for _, wl := range r.Opt.Workloads() {
		s, err := r.Suite(wl, LSTMDelta, AttnDelta, AMMADelta, PIDelta)
		if err != nil {
			return err
		}
		n := r.Opt.EvalSamples
		t.Add(wl.String(),
			f4(models.EvalDeltaF1(s.LSTMDelta, s.Test.Samples, n)),
			f4(models.EvalDeltaF1(s.AttnDelta, s.Test.Samples, n)),
			f4(models.EvalDeltaF1(s.AMMADelta, s.Test.Samples, n)),
			f4(models.EvalDeltaF1(s.PIDelta, s.Test.Samples, n)),
			f4(models.EvalDeltaF1(s.PSDelta, s.Test.Samples, n)),
		)
	}
	t.Print(w)
	return nil
}

// TablePagePrediction regenerates Table 7: accuracy@10 of temporal page
// prediction for the same model sweep.
func TablePagePrediction(w io.Writer, r *Runner) error {
	section(w, "Table 7: Accuracy@10 of Temporal Page Prediction")
	t := &Table{Header: []string{"Workload", "LSTM", "Attention", "AMMA", "AMMA-PI", "AMMA-PS"}}
	for _, wl := range r.Opt.Workloads() {
		s, err := r.Suite(wl, LSTMPage, AttnPage, AMMAPage, PIPage)
		if err != nil {
			return err
		}
		n := r.Opt.EvalSamples
		t.Add(wl.String(),
			f4(models.EvalPageAccAtK(s.LSTMPage, s.Test.Samples, 10, n)),
			f4(models.EvalPageAccAtK(s.AttnPage, s.Test.Samples, 10, n)),
			f4(models.EvalPageAccAtK(s.AMMAPage, s.Test.Samples, 10, n)),
			f4(models.EvalPageAccAtK(s.PIPage, s.Test.Samples, 10, n)),
			f4(models.EvalPageAccAtK(s.PSPage, s.Test.Samples, 10, n)),
		)
	}
	t.Print(w)
	return nil
}
