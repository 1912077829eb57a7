package goharness

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/model"
)

// panicProgram: t1 panics iff it observes t0's store.
func panicProgram() *Program {
	p := New("racy-panic").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *G) {
		if g.Read(x) == 1 {
			panic("boom")
		}
		g.Write(done, 1)
	})
	return p
}

// divergeProgram: t1 spins forever iff it observes t0's store.
func divergeProgram() *Program {
	p := New("racy-diverge").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *G) {
		if g.Read(x) == 1 {
			for {
				time.Sleep(time.Millisecond)
			}
		}
		g.Write(done, 1)
	})
	return p
}

// startPaths are the two ways a machine starts harness threads: the
// default iter.Pull coroutine, and the goroutine handshake the armed
// stall watchdog selects (a budget no healthy test body comes near).
var startPaths = []struct {
	name  string
	stall time.Duration
}{
	{"pull", 0},
	{"watchdog", 10 * time.Second},
}

// TestPanicBecomesViolation: a panicking thread body is captured at
// the harness boundary and surfaces as a panic-kind event and a
// FailPanic failure — a finding, never a process crash.
func TestPanicBecomesViolation(t *testing.T) {
	for _, sp := range startPaths {
		t.Run(sp.name, func(t *testing.T) {
			p := panicProgram()
			opt := exec.Options{StallTimeout: sp.stall}
			// Schedule t0 first so t1 observes the store and panics.
			out := exec.Replay(p, []event.ThreadID{0, 1, 1}, opt)
			if got := out.ViolationKind(); got != "panic" {
				t.Fatalf("ViolationKind = %q, want %q (failures: %v)", got, "panic", out.Failures)
			}
			if len(out.Failures) != 1 || out.Failures[0].Kind != model.FailPanic {
				t.Fatalf("failures = %+v, want one FailPanic", out.Failures)
			}
			if !strings.Contains(out.Failures[0].Msg, "boom") {
				t.Fatalf("failure message %q does not carry the panic value", out.Failures[0].Msg)
			}
			last := out.Trace[len(out.Trace)-1]
			if last.Kind != event.KindPanic || last.Thread != 1 {
				t.Fatalf("last trace event = %+v, want t1 panic", last)
			}

			// The schedule where t1 reads first terminates without
			// panicking (the read/write race on x is still reported,
			// as it should be).
			clean := exec.Replay(p, []event.ThreadID{1, 1, 0}, opt)
			if len(clean.Failures) > 0 || clean.Deadlock {
				t.Fatalf("read-first schedule failed: %+v deadlock=%v", clean.Failures, clean.Deadlock)
			}
		})
	}
}

// TestPanicMessageDeterministic: the recovered panic value renders
// identically across replays and across start paths — it is digested
// into state signatures.
func TestPanicMessageDeterministic(t *testing.T) {
	p := panicProgram()
	first := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{})
	for _, sp := range startPaths {
		t.Run(sp.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				again := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{StallTimeout: sp.stall})
				if again.Failures[0].Msg != first.Failures[0].Msg {
					t.Fatalf("replay %d: panic message %q != %q", i, again.Failures[0].Msg, first.Failures[0].Msg)
				}
				if again.StateKey != first.StateKey {
					t.Fatalf("replay %d: state key diverged", i)
				}
			}
		})
	}
}

// TestHostileSwallowAbort: a body that recovers the abort signal and
// makes another visible operation is unwound again at that operation,
// so Abort still returns with the body exited — on both start paths.
func TestHostileSwallowAbort(t *testing.T) {
	starts := []struct {
		name  string
		start func(*Program, event.ThreadID) model.Coroutine
	}{
		{"pull", (*Program).Start},
		{"watchdog", (*Program).StartStall},
	}
	for _, st := range starts {
		t.Run(st.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := New("swallow-abort").AutoStart()
			x := p.Var("x")
			var swallowed, escaped atomic.Bool
			p.Thread(func(g *G) {
				func() {
					defer func() { swallowed.Store(recover() != nil) }()
					g.Read(x)
				}()
				g.Write(x, 2)
				escaped.Store(true)
			})
			c := st.start(p, 0)
			if op, ok := c.Peek(); !ok || op.Kind != event.KindRead {
				t.Fatalf("Peek = (%+v, %v), want read", op, ok)
			}
			done := make(chan struct{})
			go func() {
				c.(model.Abortable).Abort()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Abort hung on a body that swallowed the abort signal")
			}
			if !swallowed.Load() {
				t.Fatal("the body's recover did not see the abort signal")
			}
			if escaped.Load() {
				t.Fatal("the body ran past its next visible operation after Abort")
			}
			if _, ok := c.Peek(); ok {
				t.Fatal("aborted coroutine still announces an operation")
			}
			waitGoroutines(t, before)
		})
	}
}

// TestStallTimeoutFencesDivergingThread: an infinite local loop is
// fenced as diverged within the stall timeout; the execution reports
// divergence, not deadlock or violation.
func TestStallTimeoutFencesDivergingThread(t *testing.T) {
	p := divergeProgram()
	start := time.Now()
	out := exec.Replay(p, []event.ThreadID{0, 1, 1}, exec.Options{StallTimeout: 30 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fencing took %v, far beyond the stall timeout", elapsed)
	}
	if !out.Diverged || out.DivergedThread != 1 {
		t.Fatalf("Diverged=%v DivergedThread=%d, want t1 fenced", out.Diverged, out.DivergedThread)
	}
	// The program's read/write race on x is a real (and separate)
	// finding; divergence itself must not classify as deadlock or a
	// failure.
	if out.Deadlock || len(out.Failures) > 0 {
		t.Fatalf("divergence misclassified: deadlock=%v failures=%v", out.Deadlock, out.Failures)
	}
}

// TestPeekTimeoutDirect pins the coroutine-level watchdog contract:
// after the timeout fires, the coroutine keeps announcing the
// divergence sentinel and aborts become no-ops.
func TestPeekTimeoutDirect(t *testing.T) {
	p := New("spin").AutoStart()
	p.Var("x")
	p.Thread(func(g *G) {
		for {
			time.Sleep(time.Millisecond)
		}
	})
	c := p.StartStall(0).(*stallCoroutine)
	op, ok := c.PeekTimeout(20 * time.Millisecond)
	if !ok || op.Kind != event.KindDiverge {
		t.Fatalf("PeekTimeout = (%+v, %v), want diverge sentinel", op, ok)
	}
	// Idempotent: the fenced coroutine keeps reporting divergence.
	op, ok = c.PeekTimeout(time.Millisecond)
	if !ok || op.Kind != event.KindDiverge {
		t.Fatalf("second PeekTimeout = (%+v, %v), want diverge sentinel", op, ok)
	}
	op, ok = c.Peek()
	if !ok || op.Kind != event.KindDiverge {
		t.Fatalf("Peek after fence = (%+v, %v), want diverge sentinel", op, ok)
	}
	c.Abort()                            // must not hang or panic
	c.AbortTimeout(time.Millisecond * 5) // likewise
}

// TestAbortTimeoutAbandonsStuckBody: a body that never reaches its
// next scheduling point cannot hang Abort when the timed variant is
// used.
func TestAbortTimeoutAbandonsStuckBody(t *testing.T) {
	p := New("stuck").AutoStart()
	x := p.Var("x")
	p.Thread(func(g *G) {
		g.Read(x)
		for {
			time.Sleep(time.Millisecond)
		}
	})
	c := p.StartStall(0).(*stallCoroutine)
	if op, ok := c.Peek(); !ok || op.Kind != event.KindRead {
		t.Fatalf("Peek = (%+v, %v), want read", op, ok)
	}
	c.Resume(0) // body now spins forever before its next announcement
	done := make(chan struct{})
	go func() {
		c.AbortTimeout(20 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AbortTimeout hung on a stuck body")
	}
}
