package golifetime_test

import (
	"testing"

	"mpgraph/internal/analysis/analysistest"
	"mpgraph/internal/analysis/passes/golifetime"
)

func TestGolifetime(t *testing.T) {
	analysistest.Run(t, "testdata", golifetime.Analyzer, "a", "b", "xg")
}
