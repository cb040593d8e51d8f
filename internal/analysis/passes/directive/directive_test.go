package directive_test

import (
	"testing"

	"mpgraph/internal/analysis/analysistest"
	"mpgraph/internal/analysis/passes/directive"
)

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", directive.Analyzer, "a", "b")
}
