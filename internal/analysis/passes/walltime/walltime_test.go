package walltime_test

import (
	"testing"

	"mpgraph/internal/analysis/analysistest"
	"mpgraph/internal/analysis/passes/walltime"
)

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", walltime.Analyzer, "a", "b")
}
