package confine_test

import (
	"testing"

	"alloysim/tools/analyzers/anztest"
	"alloysim/tools/analyzers/confine"
)

func TestGolden(t *testing.T) {
	anztest.Run(t, "testdata", confine.Analyzer)
}

func TestInCone(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"alloysim/internal/sim", true},
		{"testdata/internal/sim", true},
		{"alloysim/internal/core", true},
		{"alloysim/internal/dramcache", true},
		{"alloysim/internal/cpu", true},
		{"alloysim/internal/experiments", false}, // real threads on purpose
		{"alloysim/internal/obs", false},         // sweep writer, registry lock
		{"alloysim/tools/analyzers/anzkit", false},
		{"notinternal/sim", false},
	}
	for _, tc := range cases {
		if got := confine.InCone(tc.path); got != tc.want {
			t.Errorf("InCone(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}
