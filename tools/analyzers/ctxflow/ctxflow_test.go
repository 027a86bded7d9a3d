package ctxflow_test

import (
	"testing"

	"alloysim/tools/analyzers/anzkit"
	"alloysim/tools/analyzers/anztest"
	"alloysim/tools/analyzers/ctxflow"
)

func TestGolden(t *testing.T) {
	anztest.Run(t, "testdata", ctxflow.Analyzer)
}

func TestCone(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"alloysim/internal/obs", true},
		{"alloysim/internal/experiments", true},
		{"alloysim/cmd/alloysim", true},
		{"alloysim/cmd/paperfigs", true},
		{"alloysim/tools/analyzers/anzkit", true}, // self-check
		{"alloysim/internal/sim", false},          // confine's cone, not ours
		{"alloysim/internal/core", false},
		{"alloysim/cmd/alloycheck", false},
	}
	for _, tc := range cases {
		if got := anzkit.InCone(tc.path); got != tc.want {
			t.Errorf("InCone(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
