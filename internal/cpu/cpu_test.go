package cpu

import (
	"testing"

	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// fakePort services reads with a fixed latency and records traffic.
type fakePort struct {
	latency     sim.Cycle
	reads       []memaddr.Line
	writes      []memaddr.Line
	inFlight    int
	maxInFlight int
}

func (p *fakePort) Read(now sim.Cycle, core int, ref *FrontRef) sim.Cycle {
	p.reads = append(p.reads, ref.Line)
	p.inFlight++
	if p.inFlight > p.maxInFlight {
		p.maxInFlight = p.inFlight
	}
	done := now + p.latency
	p.inFlight-- // reservation-model: accounted immediately
	return done
}

func (p *fakePort) Write(now sim.Cycle, core int, ref *FrontRef) sim.Cycle {
	p.writes = append(p.writes, ref.Line)
	return 0
}

func testProfile(writeFrac float64, gap uint32) trace.Profile {
	return trace.Profile{
		Name: "t", GapMean: gap, BurstMean: 10,
		Components: []trace.Component{
			{Kind: trace.Stream, Weight: 1, RegionLines: 4096, PCs: 4, WriteFrac: writeFrac},
		},
	}
}

func run(t *testing.T, cfg Config, p trace.Profile, instr uint64, lat sim.Cycle) (*Core, *fakePort, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	port := &fakePort{latency: lat}
	core, err := New(0, cfg, SourceFromGenerator(p.MustBuild(1, 1, 0)), eng, port, instr)
	if err != nil {
		t.Fatal(err)
	}
	core.Start()
	eng.Run()
	return core, port, eng
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{IPC: 0, MLP: 4}).Validate(); err == nil {
		t.Fatal("IPC 0 accepted")
	}
	if err := (Config{IPC: 4, MLP: 0}).Validate(); err == nil {
		t.Fatal("MLP 0 accepted")
	}
	if err := (Config{IPC: 4, MLP: MaxMLP + 1}).Validate(); err == nil {
		t.Fatalf("MLP %d accepted beyond the %d reservation slots", MaxMLP+1, MaxMLP)
	}
	if err := (Config{IPC: 4, MLP: MaxMLP}).Validate(); err != nil {
		t.Fatalf("MLP %d refused: %v", MaxMLP, err)
	}
	eng := sim.NewEngine()
	if _, err := New(0, DefaultConfig(), nil, eng, &fakePort{}, 10); err == nil {
		t.Fatal("nil generator accepted")
	}
}

func TestCoreRetiresBudget(t *testing.T) {
	core, _, _ := run(t, DefaultConfig(), testProfile(0, 10), 10000, 100)
	if !core.Finished() {
		t.Fatal("core did not finish")
	}
	if core.Retired() < 10000 {
		t.Fatalf("retired %d < budget 10000", core.Retired())
	}
	// One ref per ~11 instructions: retirement overshoot bounded by one ref.
	if core.Retired() > 10000+2*10+2 {
		t.Fatalf("retired %d overshoots budget", core.Retired())
	}
}

func TestLatencySensitivity(t *testing.T) {
	// Doubling memory latency must increase execution time: the latency
	// sensitivity at the heart of the paper.
	fast, _, _ := run(t, DefaultConfig(), testProfile(0, 5), 20000, 50)
	slow, _, _ := run(t, DefaultConfig(), testProfile(0, 5), 20000, 200)
	if slow.FinishTime() <= fast.FinishTime() {
		t.Fatalf("latency 200 finished at %d, not slower than latency 50 at %d",
			slow.FinishTime(), fast.FinishTime())
	}
}

func TestMLPOverlapsLatency(t *testing.T) {
	// With MLP 4 and latency-bound execution, quadrupling the window must
	// shorten execution substantially.
	cfg1 := Config{IPC: 4, MLP: 1}
	cfg4 := Config{IPC: 4, MLP: 4}
	serial, _, _ := run(t, cfg1, testProfile(0, 2), 20000, 200)
	overlapped, _, _ := run(t, cfg4, testProfile(0, 2), 20000, 200)
	if overlapped.FinishTime() >= serial.FinishTime() {
		t.Fatal("MLP 4 not faster than MLP 1")
	}
	ratio := float64(serial.FinishTime()) / float64(overlapped.FinishTime())
	if ratio < 2 {
		t.Fatalf("MLP 4 speedup over MLP 1 = %.2f, want >= 2", ratio)
	}
}

func TestWritesDoNotBlock(t *testing.T) {
	// A write-only stream runs at full fetch speed regardless of latency.
	wOnly := testProfile(1.0, 5)
	a, port, _ := run(t, DefaultConfig(), wOnly, 10000, 10000)
	if len(port.writes) == 0 {
		t.Fatal("no writes issued")
	}
	if len(port.reads) != 0 {
		t.Fatal("write-only profile issued reads")
	}
	// Finish time ~ instructions / IPC, far below the memory latency.
	if a.FinishTime() > 10000 {
		t.Fatalf("write-only stream stalled: finish at %d", a.FinishTime())
	}
}

func TestOutstandingBoundedByMLP(t *testing.T) {
	eng := sim.NewEngine()
	var maxOut int
	var cur int
	port := &trackPort{
		latency: 500,
		eng:     eng,
		onRead: func(delta int) {
			cur += delta
			if cur > maxOut {
				maxOut = cur
			}
		},
	}
	core, err := New(0, Config{IPC: 4, MLP: 3}, SourceFromGenerator(testProfile(0, 0).MustBuild(1, 1, 0)), eng, port, 5000)
	if err != nil {
		t.Fatal(err)
	}
	core.Start()
	eng.Run()
	if maxOut > 3 {
		t.Fatalf("outstanding reached %d, MLP is 3", maxOut)
	}
	if maxOut < 3 {
		t.Fatalf("outstanding peaked at %d; window never filled", maxOut)
	}
}

// handlerFunc adapts a closure to sim.Handler for test-only events.
type handlerFunc func()

func (f handlerFunc) Fire(sim.Cycle) { f() }

// trackPort tracks true in-flight reads across simulated time.
type trackPort struct {
	latency sim.Cycle
	eng     *sim.Engine
	onRead  func(delta int)
}

func (p *trackPort) Read(now sim.Cycle, core int, ref *FrontRef) sim.Cycle {
	p.onRead(+1)
	done := now + p.latency
	p.eng.ScheduleHandler(done, handlerFunc(func() { p.onRead(-1) }))
	return done
}

func (p *trackPort) Write(now sim.Cycle, core int, ref *FrontRef) sim.Cycle { return 0 }

func TestFinishCallback(t *testing.T) {
	eng := sim.NewEngine()
	port := &fakePort{latency: 10}
	core, _ := New(3, DefaultConfig(), SourceFromGenerator(testProfile(0.2, 5).MustBuild(1, 1, 0)), eng, port, 1000)
	var finished *Core
	core.OnFinish(func(c *Core) { finished = c })
	core.Start()
	eng.Run()
	if finished == nil || finished.ID() != 3 {
		t.Fatal("finish callback not invoked with the core")
	}
	if core.FinishTime() == 0 {
		t.Fatal("finish time not recorded")
	}
	if core.Reads()+core.Writes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestDeterministicExecution(t *testing.T) {
	a, _, _ := run(t, DefaultConfig(), testProfile(0.3, 8), 30000, 77)
	b, _, _ := run(t, DefaultConfig(), testProfile(0.3, 8), 30000, 77)
	if a.FinishTime() != b.FinishTime() {
		t.Fatalf("nondeterministic finish: %d vs %d", a.FinishTime(), b.FinishTime())
	}
}

func TestWriteBackpressureStallsCore(t *testing.T) {
	// A port that stalls every write by a large amount: the core's finish
	// time must reflect the backpressure.
	eng := sim.NewEngine()
	free := &fakePort{latency: 1}
	coreA, _ := New(0, DefaultConfig(), SourceFromGenerator(testProfile(1.0, 0).MustBuild(1, 1, 0)), eng, free, 2000)
	coreA.Start()
	eng.Run()

	eng2 := sim.NewEngine()
	stall := &stallPort{stallBy: 500}
	coreB, _ := New(0, DefaultConfig(), SourceFromGenerator(testProfile(1.0, 0).MustBuild(1, 1, 0)), eng2, stall, 2000)
	coreB.Start()
	eng2.Run()

	if coreB.FinishTime() <= coreA.FinishTime()*10 {
		t.Fatalf("write backpressure ignored: stalled %d vs free %d",
			coreB.FinishTime(), coreA.FinishTime())
	}
}

// stallPort pushes back on every write.
type stallPort struct{ stallBy sim.Cycle }

func (p *stallPort) Read(now sim.Cycle, core int, ref *FrontRef) sim.Cycle {
	return now + 1
}

func (p *stallPort) Write(now sim.Cycle, core int, ref *FrontRef) sim.Cycle {
	return now + p.stallBy
}
