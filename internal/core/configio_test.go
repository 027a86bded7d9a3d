package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestSavedConfigGolden pins the bytes SaveConfig writes for
// DefaultConfig("mcf_r") and the Fingerprint that names the run in its
// manifest and trace. A Config edit that changes either breaks every saved
// -saveconfig file or every recorded fingerprint. Regenerate it with
//
//	go test ./internal/core -run TestSavedConfigGolden -update
func TestSavedConfigGolden(t *testing.T) {
	cfg := DefaultConfig("mcf_r")
	var got strings.Builder
	if err := SaveConfig(&got, cfg); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "fingerprint %s\n", cfg.Fingerprint())
	checkGolden(t, "testdata/default-config.txt", got.String())
}
