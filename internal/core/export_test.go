package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"alloysim/internal/dramcache"
	"alloysim/internal/obs"
)

var updateSchema = flag.Bool("update", false, "rewrite testdata/export-schema.txt from the current code")

const schemaFile = "testdata/export-schema.txt"

// exportDesigns is the baseline plus every registered organization.
func exportDesigns() []Design {
	ds := []Design{DesignNone}
	for _, n := range dramcache.Names() {
		ds = append(ds, Design(n))
	}
	return ds
}

// exportSchema attaches a registry, a TimeSeries and a FlightRecorder to
// a fresh system of design d and renders what they export: the
// registry's HELP and TYPE lines in dump order, then the sampler columns
// in registration order. Registration alone fixes the schema; nothing
// runs.
func exportSchema(t *testing.T, d Design) string {
	t.Helper()
	s, err := NewSystem(smallConfig("mcf_r", d))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ts := obs.NewTimeSeries(1)
	fr := obs.NewFlightRecorder(1, 0, 0)
	s.EnableObservability(reg, nil)
	s.EnableTimeSeries(ts)
	s.EnableFlightRecorder(fr)

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
	if !reflect.DeepEqual(ts.Columns(), fr.Columns()) {
		t.Errorf("%s: flight recorder columns differ from time-series columns:\n%v\n%v", d, fr.Columns(), ts.Columns())
	}
	sb.WriteString("-- columns\n")
	for _, c := range ts.Columns() {
		sb.WriteString(c + "\n")
	}
	return sb.String()
}

// TestExportSchema pins every metric name, HELP string and TYPE the
// registry exports, and every time-series and flight-recorder column,
// for the baseline and every organization. Designs with identical
// schemas share one block of the golden file. Regenerate it with
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
	if *updateSchema {
		if err := os.WriteFile(schemaFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(schemaFile)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s line %d:\ngot  %q\nwant %q\n(rerun with -update if the change is intended)", schemaFile, i+1, gl, wl)
		}
	}
}

// TestExportersAgree runs every design with all three exporters attached
// and checks that they read one list: the recorder's columns are the
// series' columns and its newest row is the series' final epoch, every
// registry counter except the cycle is a column, and every name both
// carry ends the run with the same value in each.
func TestExportersAgree(t *testing.T) {
	for _, d := range exportDesigns() {
		t.Run(string(d), func(t *testing.T) {
			s, err := NewSystem(smallConfig("mcf_r", d))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			ts := obs.NewTimeSeries(1 << 12)
			fr := obs.NewFlightRecorder(4, 0, 0)
			s.EnableObservability(reg, nil)
			s.EnableTimeSeries(ts)
			s.EnableFlightRecorder(fr)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}

			cols := ts.Columns()
			if !reflect.DeepEqual(fr.Columns(), cols) {
				t.Fatalf("flight recorder columns %v\ndiffer from time-series columns %v", fr.Columns(), cols)
			}
			last := ts.Len() - 1
			var dump bytes.Buffer
			if err := fr.WriteJSON(&dump); err != nil {
				t.Fatal(err)
			}
			var flight struct{ Rows [][]uint64 }
			if err := json.Unmarshal(dump.Bytes(), &flight); err != nil {
				t.Fatal(err)
			}
			newest := flight.Rows[len(flight.Rows)-1]
			if newest[0] != ts.Cycle(last) {
				t.Fatalf("flight recorder's newest row is cycle %d, series' final epoch is cycle %d", newest[0], ts.Cycle(last))
			}

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
			for i, c := range cols {
				v := ts.Value(last, i)
				if newest[i+1] != v {
					t.Errorf("%s: flight recorder %d, time series %d", c, newest[i+1], v)
				}
				if want, ok := reg.Value(c); ok && float64(v) != want {
					t.Errorf("%s: final epoch %d, registry %v", c, v, want)
				}
			}
		})
	}
}
