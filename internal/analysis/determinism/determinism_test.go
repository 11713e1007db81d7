package determinism_test

import (
	"testing"

	"leakbound/internal/analysis/analysistest"
	"leakbound/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer,
		"example.com/internal/leakage",
		"example.com/internal/other",
		"example.com/store",
	)
}
