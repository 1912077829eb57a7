package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/lazyrand"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// syntheticEntries builds the seeded synthetic family: 18 randomly
// generated (but fully deterministic) programs that fill the corpus to
// the paper's 79 and smooth the structural spectrum between the
// hand-written families. Seeds are fixed forever; the generator mixes
// locked blocks over thread-private data (lazy-reducible), locked
// blocks over shared data (diagonal) and bare shared accesses (racy).
func syntheticEntries() []entry {
	var es []entry
	for s := 1; s <= 18; s++ {
		s := s
		es = append(es, entry{
			name:   fmt.Sprintf("synth-%02d", s),
			family: "synthetic",
			notes:  "seeded synthetic program (deterministic generator, see bench/synthetic.go)",
			build:  func() model.Source { return synthetic(int64(s)) },
		})
	}
	return es
}

// synthetic generates one program from a seed. The generator emits
// per-thread straight-line code of 3–6 visible operations grouped into
// optional critical sections; all control decisions come from the
// seeded source, so the same seed always yields the same program.
func synthetic(seed int64) model.Source {
	rng := rand.New(lazyrand.New(seed * 7919))
	nthreads := 2 + rng.Intn(2)      // 2..3
	nshared := 1 + rng.Intn(3)       // 1..3 shared variables
	nmutex := 1 + rng.Intn(2)        // 1..2 mutexes
	lockBias := 30 + rng.Intn(60)    // % of segments that lock
	privateBias := 20 + rng.Intn(60) // % of locked accesses on private data

	b := progdsl.New(fmt.Sprintf("synth-%02d", seed)).AutoStart()
	shared := b.VarArray("s", nshared)
	private := b.VarArray("p", nthreads)
	mus := b.MutexArray("m", nmutex)

	emitVarOp := func(t *progdsl.ThreadBuilder, tid int, inLockedBlock bool) {
		v := shared.At(rng.Intn(nshared))
		if inLockedBlock && rng.Intn(100) < privateBias {
			v = private.At(tid)
		}
		switch rng.Intn(3) {
		case 0:
			t.Read(r0, v)
		case 1:
			t.WriteConst(v, int64(1+rng.Intn(5)))
		default:
			t.Read(r0, v)
			t.AddConst(r0, r0, 1)
			t.Write(v, r0)
		}
	}

	for tid := 0; tid < nthreads; tid++ {
		t := b.Thread()
		budget := 3 + rng.Intn(4) // 3..6 visible variable ops
		for budget > 0 {
			if rng.Intn(100) < lockBias {
				m := mus.At(rng.Intn(nmutex))
				inner := 1 + rng.Intn(2)
				if inner > budget {
					inner = budget
				}
				t.Lock(m)
				for k := 0; k < inner; k++ {
					emitVarOp(t, tid, true)
				}
				t.Unlock(m)
				budget -= inner
			} else {
				emitVarOp(t, tid, false)
				budget--
			}
		}
	}
	return b.Build()
}
