package ctxpair_test

import (
	"testing"

	"leakbound/internal/analysis/analysistest"
	"leakbound/internal/analysis/ctxpair"
)

func TestCtxpair(t *testing.T) {
	analysistest.Run(t, "testdata", ctxpair.Analyzer,
		"example.com/internal/flow",
		"example.com/internal/tool",
		"example.com/pairs",
		"example.com/schemes",
	)
}
