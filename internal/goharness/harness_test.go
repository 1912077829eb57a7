package goharness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// counterProgram builds the canonical racy counter with n workers.
func counterProgram(n int) *Program {
	p := New("counter").AutoStart()
	c := p.Var("c")
	for i := 0; i < n; i++ {
		p.Thread(func(g *G) {
			v := g.Read(c)
			g.Write(c, v+1)
		})
	}
	return p
}

func TestBasicExecution(t *testing.T) {
	p := New("basic")
	x := p.VarInit("x", 10)
	y := p.Var("y")
	mu := p.Mutex("mu")
	p.Thread(func(g *G) {
		g.Lock(mu)
		v := g.Read(x)
		g.Write(y, v*2)
		g.Unlock(mu)
		g.Assert(g.Read(y) == 20)
	})
	out := exec.Run(p, exec.FirstEnabled{}, exec.Options{})
	if out.Failed() {
		t.Fatalf("execution failed: %+v", out)
	}
	want := []event.Kind{event.KindLock, event.KindRead, event.KindWrite, event.KindUnlock, event.KindRead, event.KindAssert}
	if len(out.Trace) != len(want) {
		t.Fatalf("trace length %d, want %d: %v", len(out.Trace), len(want), out.Trace)
	}
	for i, k := range want {
		if out.Trace[i].Kind != k {
			t.Errorf("trace[%d] = %v, want kind %v", i, out.Trace[i], k)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := counterProgram(3)
	first := exec.Run(p, exec.NewRandom(7), exec.Options{})
	for i := 0; i < 5; i++ {
		again := exec.Replay(p, first.Choices, exec.Options{})
		if again.StateKey != first.StateKey || again.HBFP != first.HBFP {
			t.Fatalf("replay %d diverged", i)
		}
	}
}

func TestSpawnJoin(t *testing.T) {
	p := New("spawnjoin")
	x := p.Var("x")
	var child ThreadRef
	p.Thread(func(g *G) {
		g.Spawn(child)
		g.Join(child)
		g.Assert(g.Read(x) == 5)
	})
	child = p.Thread(func(g *G) {
		g.Write(x, 5)
	})
	out := exec.Run(p, exec.FirstEnabled{}, exec.Options{})
	if out.Failed() {
		t.Fatalf("spawn/join program failed: %+v", out.Failures)
	}
}

// TestAbortReleasesGoroutines drives a partial execution, abandons it,
// and checks the thread coroutines exit rather than leak, on both
// start paths.
func TestAbortReleasesGoroutines(t *testing.T) {
	for _, sp := range startPaths {
		t.Run(sp.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				p := counterProgram(4)
				m := model.NewMachineCfg(p, model.MachineConfig{StallTimeout: sp.stall})
				m.Step(0) // execute one event, leaving all threads live
				m.Abort()
			}
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines fails t unless the goroutine count settles back to
// (about) before within two seconds, giving exiting goroutines a
// moment to unwind.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestExplorationOverHarness runs a full DPOR exploration over a
// closure program (replay mode, since closures cannot be snapshotted)
// and compares class counts against the identical progdsl
// program — the two frontends must induce the same schedule space.
func TestExplorationOverHarness(t *testing.T) {
	hp := counterProgram(2)
	hres := explore.NewDPOR(false).Explore(hp, explore.Options{})

	b := progdsl.New("counter-dsl").AutoStart()
	c := b.Var("c")
	for i := 0; i < 2; i++ {
		th := b.Thread()
		th.Read(0, c)
		th.AddConst(0, 0, 1)
		th.Write(c, 0)
	}
	dres := explore.NewDPOR(false).Explore(b.Build(), explore.Options{})

	if hres.DistinctStates != dres.DistinctStates ||
		hres.DistinctHBRs != dres.DistinctHBRs ||
		hres.DistinctLazyHBRs != dres.DistinctLazyHBRs {
		t.Fatalf("frontends disagree: harness=%v dsl=%v", hres.String(), dres.String())
	}
	if hres.Schedules != dres.Schedules {
		t.Fatalf("schedule counts differ: harness=%d dsl=%d", hres.Schedules, dres.Schedules)
	}
}

func TestAssertRecordsFailure(t *testing.T) {
	p := New("assertfail")
	p.Thread(func(g *G) {
		g.Assert(false)
	})
	out := exec.Run(p, exec.FirstEnabled{}, exec.Options{})
	if len(out.Failures) != 1 || out.Failures[0].Kind != model.FailAssert {
		t.Fatalf("failures = %v", out.Failures)
	}
}

func TestAssertfPassesThrough(t *testing.T) {
	p := New("assertf")
	x := p.VarInit("x", 3)
	p.Thread(func(g *G) {
		v := g.Read(x)
		g.Assertf(v == 3, "x was %d", v)
		g.Assertf(v == 4, "x was %d", v)
	})
	out := exec.Run(p, exec.FirstEnabled{}, exec.Options{})
	if len(out.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly one", out.Failures)
	}
}

func TestProgramMetadata(t *testing.T) {
	p := New("meta")
	p.Var("a")
	p.VarInit("b", 9)
	p.Mutex("m")
	ref := p.Thread(func(*G) {})
	if p.Name() != "meta" || p.NumVars() != 2 || p.NumMutexes() != 1 || p.NumThreads() != 1 {
		t.Error("metadata wrong")
	}
	if ref != 0 {
		t.Errorf("first thread ref = %d, want 0", ref)
	}
	store := make([]int64, 2)
	p.InitStore(store)
	if store[1] != 9 {
		t.Error("InitStore must apply VarInit values")
	}
	if got := p.InitiallyRunning(); len(got) != 1 || got[0] != 0 {
		t.Errorf("default InitiallyRunning = %v, want [0]", got)
	}
	p.AutoStart()
	if got := p.InitiallyRunning(); len(got) != 1 {
		t.Errorf("autostart InitiallyRunning = %v", got)
	}
}

func TestThreadIDExposed(t *testing.T) {
	p := New("ids").AutoStart()
	x := p.Var("x")
	seen := p.Var("seen")
	p.Thread(func(g *G) {
		if g.ID() == 0 {
			g.Write(x, 1)
		}
	})
	p.Thread(func(g *G) {
		if g.ID() == 1 {
			g.Write(seen, 1)
		}
	})
	out := exec.Run(p, exec.FirstEnabled{}, exec.Options{})
	if out.Failed() {
		t.Fatal("execution failed")
	}
	// Both conditionals must have fired.
	found := map[int32]bool{}
	for _, ev := range out.Trace {
		if ev.Kind == event.KindWrite {
			found[ev.Obj] = true
		}
	}
	if !found[0] || !found[1] {
		t.Errorf("thread IDs misreported; writes seen: %v", found)
	}
}
