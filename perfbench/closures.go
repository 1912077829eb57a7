package main

import (
	"fmt"
	"math/rand/v2"

	"repro/sct"
)

// probeDefect documents the known channel defect the closure channel
// shape keeps visible: the model enables an unbuffered send only for a
// dedicated pending receive, and a select only when a channel already
// holds a value, so a send received by a select deadlocks in the model
// although Go always completes it.
const probeDefect = "known defect: an unbuffered Send received by a Select reports a false deadlock"

// closureProg is one generated Go-closure program and its answer,
// known by construction.
type closureProg struct {
	Shape string
	Prog  *sct.Program
	Want  answer
}

// closureShapes is the fixed parameter grid of the closure workload.
// The seed varies every program inside its shape (values, which thread
// owns which variable, which mutex guards the section, lock-ring
// direction), never the size of its schedule space, so runs with
// different seeds do the same amount of exploration.
var closureShapes = []struct {
	shape string
	n, k  int
}{
	{"coarse", 3, 2}, {"coarse", 4, 1}, {"coarse", 4, 2}, {"coarse", 5, 1},
	{"racy", 2, 1}, {"racy", 2, 2}, {"racy", 3, 1},
	{"deadlock", 2, 1}, {"deadlock", 3, 1}, {"deadlock", 3, 2},
	{"chan", 1, 2}, {"chan", 2, 1}, {"chan", 2, 2},
}

// closureVariants is how many programs the generator draws per entry
// of closureShapes, enough for 100+ searches and 100+ reproduced bugs
// per grid pass.
const closureVariants = 6

// genClosures builds the closure workload's programs from seed. The
// same seed always yields the same programs.
func genClosures(seed int64) []closureProg {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	out := make([]closureProg, 0, closureVariants*len(closureShapes))
	for i := 0; i < closureVariants*len(closureShapes); i++ {
		s := closureShapes[i%len(closureShapes)]
		name := fmt.Sprintf("%s-%dx%d-%d", s.shape, s.n, s.k, i)
		var cp closureProg
		switch s.shape {
		case "coarse":
			cp = coarseLock(rng, name, s.n, s.k)
		case "racy":
			cp = racyCounter(rng, name, s.n, s.k)
		case "deadlock":
			cp = lockOrder(rng, name, s.n, s.k)
		case "chan":
			cp = chanSelect(rng, name, s.n, s.k)
		}
		cp.Shape = s.shape
		out = append(out, cp)
	}
	return out
}

// coarseLock: n threads each update a private cell k times inside one
// global critical section, the lazy HBR's headline case. No bug.
func coarseLock(rng *rand.Rand, name string, n, k int) closureProg {
	p := sct.NewProgram(name).AutoStart()
	mus := []sct.Mutex{p.Mutex("m0"), p.Mutex("m1")}
	mu := mus[rng.IntN(len(mus))]
	cells := make([]sct.Var, n)
	for i := range cells {
		cells[i] = p.VarInit(fmt.Sprintf("cell%d", i), int64(rng.IntN(100)))
	}
	owner := rng.Perm(n)
	for i := 0; i < n; i++ {
		cell, delta := cells[owner[i]], int64(1+rng.IntN(9))
		p.Thread(func(g *sct.G) {
			g.Lock(mu)
			for j := 0; j < k; j++ {
				g.Write(cell, g.Read(cell)+delta)
			}
			g.Unlock(mu)
		})
	}
	return closureProg{Prog: p, Want: answer{}}
}

// racyCounter: n threads increment one shared counter k times without
// a lock. Bug: data race.
func racyCounter(rng *rand.Rand, name string, n, k int) closureProg {
	p := sct.NewProgram(name).AutoStart()
	counter := p.VarInit("counter", int64(rng.IntN(100)))
	for i := 0; i < n; i++ {
		step := int64(1 + rng.IntN(9))
		p.Thread(func(g *sct.G) {
			for j := 0; j < k; j++ {
				g.Write(counter, g.Read(counter)+step)
			}
		})
	}
	return closureProg{Prog: p, Want: answer{Bug: true, Kinds: []string{"data race"}}}
}

// lockOrder: n threads in a ring each take their own mutex, then their
// neighbour's, and write a private cell k times while holding both.
// Bug: deadlock.
func lockOrder(rng *rand.Rand, name string, n, k int) closureProg {
	p := sct.NewProgram(name).AutoStart()
	mus := make([]sct.Mutex, n)
	for i := range mus {
		mus[i] = p.Mutex(fmt.Sprintf("m%d", i))
	}
	order := rng.Perm(n)
	dir := 1
	if rng.IntN(2) == 0 {
		dir = n - 1
	}
	for i := 0; i < n; i++ {
		first, second := mus[order[i]], mus[order[(i+dir)%n]]
		cell := p.VarInit(fmt.Sprintf("cell%d", i), int64(rng.IntN(100)))
		p.Thread(func(g *sct.G) {
			g.Lock(first)
			g.Lock(second)
			for j := 0; j < k; j++ {
				g.Write(cell, g.Read(cell)+1)
			}
			g.Unlock(second)
			g.Unlock(first)
		})
	}
	return closureProg{Prog: p, Want: answer{Bug: true, Kinds: []string{"deadlock"}}}
}

// chanSelect: n producers each send k values on a buffered channel; a
// consumer drains it with Select and checks the sum. Producer 0 then
// hands the consumer a token over an unbuffered channel the consumer
// receives with the same Select — the probe of probeDefect. Real Go
// always completes this program, so its answer is "no violation".
func chanSelect(rng *rand.Rand, name string, n, k int) closureProg {
	p := sct.NewProgram(name).AutoStart()
	work := p.Chan("work", n*k)
	probe := p.Chan("probe", 0)
	token := int64(1 + rng.IntN(1000))
	var want int64
	for i := 0; i < n; i++ {
		vals := make([]int64, k)
		for j := range vals {
			vals[j] = int64(1 + rng.IntN(100))
			want += vals[j]
		}
		first := i == 0
		p.Thread(func(g *sct.G) {
			for _, v := range vals {
				g.Send(work, v)
			}
			if first {
				g.Send(probe, token)
			}
		})
	}
	p.Thread(func(g *sct.G) {
		var sum int64
		gotToken := false
		for r := 0; r < n*k+1; r++ {
			idx, v, ok := g.Select(work, probe)
			g.Assert(ok)
			if idx == 1 {
				gotToken = v == token
			} else {
				sum += v
			}
		}
		g.Assert(gotToken && sum == want)
	})
	return closureProg{Prog: p, Want: answer{Defect: probeDefect, DefectKind: "deadlock"}}
}
