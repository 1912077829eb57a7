package explore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
)

// Allocation-regression bounds, in heap allocations per explored
// event. The O(1)-backtracking paths sit near 2 allocs/event (arena
// growth, trace append doubling, per-walk machine rebuilds amortized
// over the walk); any per-step tracker snapshot work — the
// tr.Clone() the undo backend used to pay on every retained step —
// is ≥3 slab copies per event and blows straight past these bounds
// (a deep machine snapshot per step measures ~20 allocs/event).
const (
	samplerAllocsPerEvent = 3.0
	stackAllocsPerEvent   = 4.0
)

// samplerBytesPerWalk bounds a sampler's heap bytes per walk. A walk
// of filesystem-2 allocates ~3.6 KB of its own, mostly the tracker and
// machine the replay backend rebuilds for each walk. Seeding a fresh
// math/rand source adds 5.4 KB in only two allocations, which the
// allocs-per-event bound cannot see, so a sampler that builds one per
// walk again fails here (~8.8 KB/walk).
const samplerBytesPerWalk = 6144

// allocsPerEvent measures eng's steady-state allocations per explored
// event on bm at the given options.
func allocsPerEvent(t *testing.T, eng Engine, opt Options, name string) float64 {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	res := eng.Explore(bm.Program, opt)
	if res.Events == 0 {
		t.Fatalf("%s explored no events on %s", eng.Name(), name)
	}
	allocs := testing.AllocsPerRun(3, func() {
		eng.Explore(bm.Program, opt)
	})
	return allocs / float64(res.Events)
}

// bytesPerRun measures the mean heap bytes one eng.Explore of bm
// allocates.
func bytesPerRun(t *testing.T, eng Engine, opt Options, name string) float64 {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	eng.Explore(bm.Program, opt) // warm up
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		eng.Explore(bm.Program, opt)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestSamplerAllocsStraightLine pins the sampler fast path: random,
// pct and pos walks never backtrack mid-execution, so their cursors
// must not retain per-step machine or tracker snapshots on the way
// forward (newWalkCursor forces the replay backend when no prefix is
// pinned). A regression that reintroduces per-step snapshot work —
// undo logging a coroutine checkpoint per event, or a tr.Clone() per
// retained step — multiplies allocations per event several-fold and
// fails the bound. The bytes-per-walk bound catches per-walk rng
// seeding, which is few allocations but many bytes.
func TestSamplerAllocsStraightLine(t *testing.T) {
	opt := Options{ScheduleLimit: 50, MaxSteps: 2000}
	for _, eng := range []Engine{NewRandomWalk(1), NewPCT(1, 3), NewPOS(1)} {
		got := allocsPerEvent(t, eng, opt, "filesystem-2")
		if got > samplerAllocsPerEvent {
			t.Errorf("%s: %.2f allocs/event, want ≤ %.1f (per-step snapshot work on a straight-line walk?)",
				eng.Name(), got, samplerAllocsPerEvent)
		}
		perWalk := bytesPerRun(t, eng, opt, "filesystem-2") / float64(opt.ScheduleLimit)
		if perWalk > samplerBytesPerWalk {
			t.Errorf("%s: %.0f bytes/walk, want ≤ %d (a fresh rng source per walk?)",
				eng.Name(), perWalk, samplerBytesPerWalk)
		}
	}
}

// TestNoPerWalkRandSource scans the non-test sources of the samplers'
// and the corpus generator's packages: math/rand.NewSource fills a
// 607-word table on every call, so code here draws from a
// lazyrand.Source it reseeds instead.
func TestNoPerWalkRandSource(t *testing.T) {
	for _, dir := range []string{".", "../bench"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "NewSource" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "rand" {
					t.Errorf("%s: rand.NewSource; use a reseeded lazyrand.Source", fset.Position(sel.Pos()))
				}
				return true
			})
		}
	}
}

// TestBacktrackAllocsO1 pins the tentpole: with the undo backend the
// whole (machine, tracker) pair backtracks in O(1), so the stack
// engines' allocations per explored event stay constant — no
// tr.Clone() per retained step. Deep per-step snapshots cost ~10×
// this bound per event, so the old per-step-Clone code path cannot
// silently return.
func TestBacktrackAllocsO1(t *testing.T) {
	opt := Options{ScheduleLimit: 500, MaxSteps: 2000, Backend: BackendUndo}
	for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewDPOR(true)} {
		got := allocsPerEvent(t, eng, opt, "coarse-tail-3x3")
		if got > stackAllocsPerEvent {
			t.Errorf("%s/undo: %.2f allocs/event, want ≤ %.1f (per-step tracker Clone is back?)",
				eng.Name(), got, stackAllocsPerEvent)
		}
	}
}
