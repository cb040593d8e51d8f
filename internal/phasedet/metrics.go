package phasedet

import "fmt"

// Score is a precision/recall/F1 triple (Table 4).
type Score struct {
	Precision float64
	Recall    float64
	TP, FP    int
	Missed    int
}

// F1 is the harmonic mean of precision and recall.
func (s Score) F1() float64 {
	if s.Precision+s.Recall == 0 {
		return 0
	}
	return 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
}

func (s Score) String() string {
	return fmt.Sprintf("P=%.4f R=%.4f F1=%.4f (tp=%d fp=%d miss=%d)",
		s.Precision, s.Recall, s.F1(), s.TP, s.FP, s.Missed)
}

// EvaluateDetections scores detected transition indices against ground-truth
// indices. A detection within [truth-lead, truth+tolerance] matches that
// truth — detectors lag the transition (they need samples of the new phase),
// but a small lead is legitimate when the ground truth marks the start of
// the first *long* segment and the detector caught a short precursor
// segment of the same new phase. Each truth may be matched by multiple
// detections but only the first is a true positive — duplicates and
// unmatched detections are false positives.
func EvaluateDetections(detected, truth []int, lead, tolerance int) Score {
	matched := make([]bool, len(truth))
	var s Score
	for _, d := range detected {
		ok := false
		for ti, t := range truth {
			if d >= t-lead && d <= t+tolerance && !matched[ti] {
				matched[ti] = true
				ok = true
				break
			}
		}
		if ok {
			s.TP++
		} else {
			s.FP++
		}
	}
	for _, m := range matched {
		if !m {
			s.Missed++
		}
	}
	return s.rated()
}

// Add sums two scores' counts and rates the sum: precision
// ΣTP/(ΣTP+ΣFP), recall ΣTP/(ΣTP+ΣMissed) — every true positive matches
// exactly one truth, so TP+Missed is the truth count.
func (s Score) Add(o Score) Score {
	return Score{TP: s.TP + o.TP, FP: s.FP + o.FP, Missed: s.Missed + o.Missed}.rated()
}

// rated returns s with precision and recall set from its counts.
func (s Score) rated() Score {
	if s.TP+s.FP > 0 {
		s.Precision = float64(s.TP) / float64(s.TP+s.FP)
	}
	if s.TP+s.Missed > 0 {
		s.Recall = float64(s.TP) / float64(s.TP+s.Missed)
	}
	return s
}

// RunDetector feeds xs through d and returns the indices where it fired.
func RunDetector(d Detector, xs []float64) []int {
	var out []int
	for i, x := range xs {
		if d.Observe(x) {
			out = append(out, i)
		}
	}
	return out
}
