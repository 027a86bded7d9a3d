package main

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// cliArg marks a re-execution of the test binary as the alloysim CLI:
// the arguments after it are the CLI's own.
const cliArg = "-run-alloysim-main"

func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == cliArg {
			os.Args = append([]string{"alloysim"}, os.Args[i+1:]...)
			// A SIGQUIT that lands before main installs its listener would
			// end the process with a stack dump; drop it instead. main's
			// signal.Notify takes SIGQUIT back.
			signal.Ignore(syscall.SIGQUIT)
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// lockedBuffer collects a child's stderr while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSIGQUITPrintsFlightSnapshot: with -flight as the only telemetry
// flag, SIGQUIT during the measured phase prints the flight recorder's
// latest snapshot on stderr and the run goes on.
func TestSIGQUITPrintsFlightSnapshot(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The budget outlasts the test: the run is killed once the snapshot
	// shows up.
	cmd := exec.Command(exe, cliArg, "-workload", "mcf_r", "-cores", "2", "-warmup", "5000",
		"-instr", "1000000000", "-flight", filepath.Join(t.TempDir(), "flight.json"))
	var stderr lockedBuffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		close(done)
	}()
	defer func() {
		cmd.Process.Kill() //nolint:errcheck // the run may have ended already
		<-done
	}()

	const want = "alloysim: flight snapshot:\n" + `{"columns":["cycle",`
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(30 * time.Second)
	for !strings.Contains(stderr.String(), want) {
		select {
		case <-done:
			t.Fatalf("alloysim exited (%v) without printing a flight snapshot; stderr:\n%s", waitErr, stderr.String())
		case <-deadline:
			t.Fatalf("no flight snapshot after 30 s of SIGQUITs; stderr:\n%.2000s", stderr.String())
		case <-tick.C:
			// A run that has just exited fails the next pass through done.
			cmd.Process.Signal(syscall.SIGQUIT) //nolint:errcheck
		}
	}
}
