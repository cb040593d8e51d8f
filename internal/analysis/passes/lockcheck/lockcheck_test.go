package lockcheck_test

import (
	"testing"

	"mpgraph/internal/analysis/analysistest"
	"mpgraph/internal/analysis/passes/lockcheck"
)

func TestLockcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.Analyzer, "a", "b")
}
