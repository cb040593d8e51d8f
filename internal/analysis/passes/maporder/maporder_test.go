package maporder_test

import (
	"testing"

	"mpgraph/internal/analysis/analysistest"
	"mpgraph/internal/analysis/passes/maporder"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", maporder.Analyzer, "a", "b")
}
