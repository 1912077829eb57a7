package sct_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/sct"
)

// The closure programs below mirror the ones ExampleRun and the
// examples/ commands explore, at sizes small enough to exhaust with
// dfs.

// lostUpdate is ExampleRun's (and examples/quickstart's) program: two
// unlocked increments joined and audited by the initial thread.
func lostUpdate() *sct.Program {
	p := sct.NewProgram("lost-update")
	counter := p.Var("counter")
	var workers []sct.ThreadRef
	p.Thread(func(g *sct.G) {
		for _, w := range workers {
			g.Spawn(w)
		}
		for _, w := range workers {
			g.Join(w)
		}
		g.Assert(g.Read(counter) == int64(len(workers)))
	})
	for i := 0; i < 2; i++ {
		workers = append(workers, p.Thread(func(g *sct.G) {
			g.Write(counter, g.Read(counter)+1)
		}))
	}
	return p
}

// bankAccount is examples/bankaccount's program.
func bankAccount(n int, locked bool) *sct.Program {
	p := sct.NewProgram(fmt.Sprintf("bank(n=%d,locked=%v)", n, locked))
	balance := p.Var("balance")
	mu := p.Mutex("mu")
	var depositors []sct.ThreadRef
	p.Thread(func(g *sct.G) {
		for _, d := range depositors {
			g.Spawn(d)
		}
		for _, d := range depositors {
			g.Join(d)
		}
		g.Assert(g.Read(balance) == int64(10*n))
	})
	for i := 0; i < n; i++ {
		depositors = append(depositors, p.Thread(func(g *sct.G) {
			if locked {
				g.Lock(mu)
			}
			g.Write(balance, g.Read(balance)+10)
			if locked {
				g.Unlock(mu)
			}
		}))
	}
	return p
}

// coarseLock is examples/coarselock's program.
func coarseLock(n, k int) *sct.Program {
	p := sct.NewProgram(fmt.Sprintf("coarselock-%dx%d", n, k)).AutoStart()
	global := p.Mutex("global")
	for i := 0; i < n; i++ {
		cell := p.Var(fmt.Sprintf("cell%d", i))
		p.Thread(func(g *sct.G) {
			g.Lock(global)
			for j := 0; j < k; j++ {
				g.Write(cell, g.Read(cell)+1)
			}
			g.Unlock(global)
		})
	}
	return p
}

// philosophers is examples/philosophers' table: with ordered=false
// the fork ring can deadlock.
func philosophers(n int, ordered bool) *sct.Program {
	p := sct.NewProgram(fmt.Sprintf("philosophers-%d(ordered=%v)", n, ordered)).AutoStart()
	forks := make([]sct.Mutex, n)
	for i := range forks {
		forks[i] = p.Mutex(fmt.Sprintf("fork%d", i))
	}
	meals := p.Var("meals")
	for i := 0; i < n; i++ {
		first, second := forks[i], forks[(i+1)%n]
		if ordered && i == n-1 {
			first, second = second, first
		}
		p.Thread(func(g *sct.G) {
			g.Lock(first)
			g.Lock(second)
			g.Write(meals, g.Read(meals)+1)
			g.Unlock(second)
			g.Unlock(first)
		})
	}
	return p
}

// workPool is examples/boundedsearch's atomicity bug with one
// bystander worker.
func workPool() *sct.Program {
	p := sct.NewProgram("workpool").AutoStart()
	mu := p.Mutex("mu")
	result, done, scratch := p.Var("result"), p.Var("done"), p.Var("scratch")
	p.Thread(func(g *sct.G) {
		g.Lock(mu)
		g.Write(result, 21)
		g.Write(done, 1)
		g.Unlock(mu)
		g.Lock(mu)
		g.Write(result, 42)
		g.Unlock(mu)
	})
	p.Thread(func(g *sct.G) {
		g.Lock(mu)
		d, r := g.Read(done), g.Read(result)
		g.Unlock(mu)
		if d == 1 {
			g.Assert(r == 42)
		}
	})
	p.Thread(func(g *sct.G) {
		g.Lock(mu)
		g.Write(scratch, g.Read(scratch)+1)
		g.Unlock(mu)
	})
	return p
}

// stallPathZoo is every closure program the cross-path oracle
// explores: the examples' programs, both polarities where an example
// has two, plus the hostile corpus's racy panic.
func stallPathZoo(t *testing.T) []sct.Source {
	hp, ok := bench.ByName("hostile-panic")
	if !ok {
		t.Fatal("hostile-panic missing from the bench registry")
	}
	return []sct.Source{
		lostUpdate(),
		bankAccount(2, false), bankAccount(2, true),
		coarseLock(3, 2),
		philosophers(3, false), philosophers(3, true),
		workPool(),
		hp.Program,
	}
}

// TestStallPathEquivalence is the cross-path oracle: a closure
// program's threads run as iter.Pull coroutines by default and on the
// goroutine handshake once the stall watchdog is armed, and the two
// must explore byte-identical schedule spaces and replay identical
// violations.
func TestStallPathEquivalence(t *testing.T) {
	for _, src := range stallPathZoo(t) {
		for _, engine := range []string{"dfs", "dpor+sleep"} {
			pull, err := sct.Run(context.Background(), src, engine)
			if err != nil {
				t.Fatalf("%s/%s: %v", src.Name(), engine, err)
			}
			watched, err := sct.Run(context.Background(), src, engine, sct.WithStallTimeout(10*time.Second))
			if err != nil {
				t.Fatalf("%s/%s watchdog: %v", src.Name(), engine, err)
			}
			if !reflect.DeepEqual(pull.Result, watched.Result) {
				t.Errorf("%s/%s: start paths diverge\n pull:     %+v\n watchdog: %+v",
					src.Name(), engine, pull.Result, watched.Result)
			}
			if (pull.Violation == nil) != (watched.Violation == nil) {
				t.Errorf("%s/%s: violation on one start path only", src.Name(), engine)
				continue
			}
			if pull.Violation != nil && !reflect.DeepEqual(pull.Violation, watched.Violation) {
				t.Errorf("%s/%s: replayed violations diverge\n pull:     %+v\n watchdog: %+v",
					src.Name(), engine, pull.Violation, watched.Violation)
			}
		}
	}
}

// TestStallPathDeadlockNoLeak: finding, minimizing and replaying a
// deadlock leaves no thread goroutine behind, with the watchdog off
// and on. Every deadlocked execution ends with blocked threads parked
// at their pending operations; each must be released.
func TestStallPathDeadlockNoLeak(t *testing.T) {
	for _, stall := range []time.Duration{0, 10 * time.Second} {
		t.Run(fmt.Sprintf("stall=%v", stall), func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				p := philosophers(3, false)
				rep, err := sct.Run(context.Background(), p, "dpor+sleep", sct.WithStallTimeout(stall))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Violation == nil || rep.Violation.Kind != "deadlock" {
					t.Fatalf("violation = %+v, want a deadlock", rep.Violation)
				}
				cx, err := rep.Counterexample()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cx.Minimize(); err != nil {
					t.Fatal(err)
				}
				if _, err := cx.Replay(p); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
			}
		})
	}
}
