package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"alloysim/internal/dramcache"
	"alloysim/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

const schemaFile = "testdata/export-schema.txt"

// exportDesigns is the baseline plus every registered organization.
func exportDesigns() []Design {
	ds := []Design{DesignNone}
	for _, n := range dramcache.Names() {
		ds = append(ds, Design(n))
	}
	return ds
}

// exportSchema attaches a registry and a TimeSeries to a fresh system of
// design d and renders what they export: the registry's HELP and TYPE
// lines in dump order, then the series' columns in registration order.
// Registration alone fixes the schema; nothing runs.
func exportSchema(t *testing.T, d Design) string {
	t.Helper()
	s, err := NewSystem(smallConfig("mcf_r", d))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts := obs.NewTimeSeries(1)
	s.EnableObservability(reg, nil)
	s.EnableTimeSeries(ts)

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("-- registry\n")
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			sb.WriteString(line)
		}
	}
	sb.WriteString("-- columns\n")
	for _, c := range ts.Columns() {
		sb.WriteString(c + "\n")
	}
	return sb.String()
}

// TestExportSchema pins every metric name, HELP string and TYPE the
// registry exports, and every time-series column, for the baseline and
// every organization. Designs with identical schemas share one block of
// the golden file. Regenerate it with
//
//	go test ./internal/core -run TestExportSchema -update
func TestExportSchema(t *testing.T) {
	var order []string
	designs := make(map[string][]string)
	for _, d := range exportDesigns() {
		s := exportSchema(t, d)
		if _, seen := designs[s]; !seen {
			order = append(order, s)
		}
		designs[s] = append(designs[s], string(d))
	}
	var got strings.Builder
	for _, s := range order {
		fmt.Fprintf(&got, "== %s\n%s", strings.Join(designs[s], " "), s)
	}
	checkGolden(t, schemaFile, got.String())
}

// checkGolden compares got with the golden file at path, and reports the
// first line that differs. With -update it rewrites the file instead.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s line %d:\ngot  %q\nwant %q\n(rerun with -update if the change is intended)", path, i+1, gl, wl)
		}
	}
}

// TestExportersAgree runs every design with both exporters attached and
// checks that they read one list: every registry counter except the
// cycle is a column, and every name both carry ends the run with the
// same value in each.
func TestExportersAgree(t *testing.T) {
	for _, d := range exportDesigns() {
		t.Run(string(d), func(t *testing.T) {
			s, err := NewSystem(smallConfig("mcf_r", d))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			ts := obs.NewTimeSeries(1 << 12)
			s.EnableObservability(reg, nil)
			s.EnableTimeSeries(ts)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}

			last := ts.Len() - 1

			var prom bytes.Buffer
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(prom.String(), "\n") {
				f := strings.Fields(line)
				if len(f) == 4 && f[1] == "TYPE" && f[3] == "counter" &&
					f[2] != "sim_engine_cycles_total" && ts.ColumnIndex(f[2]) < 0 {
					t.Errorf("registry counter %s is not a column", f[2])
				}
			}
			for i, c := range ts.Columns() {
				v := ts.Value(last, i)
				if want, ok := reg.Value(c); ok && float64(v) != want {
					t.Errorf("%s: final epoch %d, registry %v", c, v, want)
				}
			}
		})
	}
}
