package campaign

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/event"
	"repro/internal/explore"
)

// exactBenches are exhaustively explorable corpus benchmarks spanning
// the violation classes (races, asserts, deadlocks) and family shapes.
var exactBenches = []string{
	"counter-racy-2x2",
	"philosophers-3",
	"ticket-2",
	"prodcons-2p1c-s1-i1",
	"lastzero-3",
	"synth-03",
}

func mustProgram(t *testing.T, name string) bench.Benchmark {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return bm
}

// TestParallelDFSExactCounts: on exhausted spaces, parallel DFS must
// report byte-identical counters to sequential DFS — schedules,
// terminals, truncations, distinct HBRs/lazy HBRs/states, violation
// class counts and the state set itself. Only Events may differ (each
// unit replays its pinned prefix).
func TestParallelDFSExactCounts(t *testing.T) {
	for _, name := range exactBenches {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			opt := explore.Options{MaxSteps: 2000, RecordStates: true}
			seq := explore.NewDFS().Explore(bm.Program, opt)
			if seq.HitLimit {
				t.Fatalf("sequential DFS unexpectedly hit a limit")
			}
			for _, workers := range []int{2, 4, 7} {
				par := ParallelDFS(bm.Program, opt, workers)
				assertExact(t, workers, seq, par, true)
			}
		})
	}
}

// TestParallelRandomWalkExactCounts: the fanned-out random walk runs
// exactly the same multiset of seeded walks as the sequential engine,
// so every counter must match byte for byte.
func TestParallelRandomWalkExactCounts(t *testing.T) {
	for _, name := range []string{"counter-racy-2x2", "philosophers-3", "peterson-2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			opt := explore.Options{ScheduleLimit: 500, MaxSteps: 2000, RecordStates: true}
			seq := explore.NewRandomWalk(42).Explore(bm.Program, opt)
			for _, workers := range []int{2, 5} {
				par := ParallelRandomWalk(42, bm.Program, opt, workers)
				assertExact(t, workers, seq, par, true)
			}
		})
	}
}

// TestParallelDPORExactCoverage: parallel DPOR explores the partition
// layer exhaustively and full DPOR beneath, so on exhausted spaces its
// distinct-coverage counters and state set must equal sequential
// DPOR's (which in turn equal exhaustive DFS's); #schedules may be
// larger, never smaller.
func TestParallelDPORExactCoverage(t *testing.T) {
	for _, name := range exactBenches {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			opt := explore.Options{MaxSteps: 2000, RecordStates: true}
			seq := explore.NewDPOR(false).Explore(bm.Program, opt)
			if seq.HitLimit {
				t.Fatalf("sequential DPOR unexpectedly hit a limit")
			}
			for _, workers := range []int{2, 4} {
				par := ParallelDPOR(bm.Program, opt, workers)
				if err := par.CheckInvariant(); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par.DistinctHBRs != seq.DistinctHBRs ||
					par.DistinctLazyHBRs != seq.DistinctLazyHBRs ||
					par.DistinctStates != seq.DistinctStates {
					t.Errorf("workers=%d coverage mismatch: par hbrs=%d lazy=%d states=%d, seq hbrs=%d lazy=%d states=%d",
						workers, par.DistinctHBRs, par.DistinctLazyHBRs, par.DistinctStates,
						seq.DistinctHBRs, seq.DistinctLazyHBRs, seq.DistinctStates)
				}
				if !reflect.DeepEqual(par.States, seq.States) {
					t.Errorf("workers=%d state sets differ", workers)
				}
				if par.Schedules < seq.Schedules {
					t.Errorf("workers=%d explored fewer schedules (%d) than sequential DPOR (%d)",
						workers, par.Schedules, seq.Schedules)
				}
				if (par.Deadlocks > 0) != (seq.Deadlocks > 0) || (par.Races > 0) != (seq.Races > 0) {
					t.Errorf("workers=%d violation verdicts differ", workers)
				}
			}
		})
	}
}

// assertExact compares every deterministic counter of two results.
func assertExact(t *testing.T, workers int, seq, par explore.Result, compareStates bool) {
	t.Helper()
	type counts struct {
		Schedules, Terminals, Pruned, Truncated, SleepBlocked  int
		DistinctHBRs, DistinctLazyHBRs, DistinctStates         int
		Deadlocks, AssertFailures, LockErrors, Races, MaxDepth int
		HitLimit                                               bool
	}
	c := func(r explore.Result) counts {
		return counts{r.Schedules, r.Terminals, r.Pruned, r.Truncated, r.SleepBlocked,
			r.DistinctHBRs, r.DistinctLazyHBRs, r.DistinctStates,
			r.Deadlocks, r.AssertFailures, r.LockErrors, r.Races, r.MaxDepth, r.HitLimit}
	}
	if c(seq) != c(par) {
		t.Errorf("workers=%d counters differ:\n seq=%+v\n par=%+v", workers, c(seq), c(par))
	}
	if compareStates && !reflect.DeepEqual(seq.States, par.States) {
		t.Errorf("workers=%d state sets differ:\n seq=%v\n par=%v", workers, seq.States, par.States)
	}
	if err := par.CheckInvariant(); err != nil {
		t.Errorf("workers=%d: %v", workers, err)
	}
}

// TestParallelBackendAblation: the exploration-backend choice is
// invisible to the parallel searches too — parallel DFS and parallel
// random walk must match their sequential counterparts on every
// counter under the undo-log and replay backends alike.
func TestParallelBackendAblation(t *testing.T) {
	backends := []explore.BackendKind{explore.BackendUndo, explore.BackendReplay}
	for _, name := range []string{"counter-racy-2x2", "philosophers-3"} {
		name := name
		t.Run(name, func(t *testing.T) {
			bm := mustProgram(t, name)
			for _, backend := range backends {
				opt := explore.Options{MaxSteps: 2000, RecordStates: true, Backend: backend}
				seq := explore.NewDFS().Explore(bm.Program, opt)
				par := ParallelDFS(bm.Program, opt, 3)
				assertExact(t, 3, seq, par, true)

				ropt := opt
				ropt.ScheduleLimit = 200
				rseq := explore.NewRandomWalk(42).Explore(bm.Program, ropt)
				rpar := ParallelRandomWalk(42, bm.Program, ropt, 3)
				assertExact(t, 3, rseq, rpar, true)
			}
		})
	}
}

// TestParallelBudgetHonoured: with a schedule limit, the shared budget
// stops the fan-out within workers−1 schedules of the limit.
func TestParallelBudgetHonoured(t *testing.T) {
	bm := mustProgram(t, "filesystem-2")
	const limit, workers = 400, 4
	res := ParallelDFS(bm.Program, explore.Options{ScheduleLimit: limit, MaxSteps: 2000}, workers)
	if !res.HitLimit {
		t.Fatalf("expected HitLimit on a %d-schedule budget", limit)
	}
	if res.Schedules < limit/2 || res.Schedules > limit+workers-1 {
		t.Fatalf("budgeted run executed %d schedules, want ≈%d (≤ limit+workers−1)", res.Schedules, limit)
	}
	// With one worker the shared budget must reproduce the sequential
	// limit exactly.
	solo := ParallelDFS(bm.Program, explore.Options{ScheduleLimit: limit, MaxSteps: 2000}, 1)
	if solo.Schedules != limit || !solo.HitLimit {
		t.Fatalf("workers=1 budgeted run executed %d schedules (hitLimit=%v), want exactly %d",
			solo.Schedules, solo.HitLimit, limit)
	}
}

// TestParallelContextCancel: a cancelled context stops the search and
// marks the result interrupted.
func TestParallelContextCancel(t *testing.T) {
	bm := mustProgram(t, "filesystem-2")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := ParallelDFS(bm.Program, explore.Options{MaxSteps: 2000, Ctx: ctx}, 2)
	if !res.Interrupted {
		t.Fatalf("expected Interrupted from a cancelled context; got %+v", res)
	}
	full := explore.NewDFS().Explore(bm.Program, explore.Options{MaxSteps: 2000})
	if res.Schedules >= full.Schedules {
		t.Fatalf("cancelled run explored the whole space (%d schedules)", res.Schedules)
	}
}

// TestParallelEngineAdapters: the explore.Engine adapters dispatch to
// the right search and carry worker counts in their names.
func TestParallelEngineAdapters(t *testing.T) {
	bm := mustProgram(t, "counter-racy-2x2")
	opt := explore.Options{ScheduleLimit: 200, MaxSteps: 2000}
	for _, eng := range []explore.Engine{
		NewParallelDFS(2), NewParallelDPOR(2), NewParallelRandomWalk(3, 2),
	} {
		res := eng.Explore(bm.Program, opt)
		if res.Schedules == 0 {
			t.Errorf("%s explored nothing", eng.Name())
		}
		if err := res.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", eng.Name(), err)
		}
	}
}

// TestFrontierPartition: the partition is a set of mutually
// prefix-free choice sequences — no unit's subtree contains another's.
func TestFrontierPartition(t *testing.T) {
	bm := mustProgram(t, "philosophers-3")
	units := frontier(bm.Program, 16)
	if len(units) < 2 {
		t.Fatalf("frontier produced %d units, want ≥ 2", len(units))
	}
	for i, a := range units {
		for j, b := range units {
			if i == j {
				continue
			}
			if isPrefix(a, b) {
				t.Fatalf("unit %d is a prefix of unit %d: %v ⊑ %v", i, j, a, b)
			}
		}
	}
}

func isPrefix(a, b []event.ThreadID) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStaticPartitionFirstBugDrain: under StopAtFirstBug the static-
// partition searches share a found flag, so units queued behind the
// one that captured the violation drain as no-ops instead of running
// their whole subtree (or walk chunk). The stopped run must therefore
// execute far fewer schedules than the exhaustive (or full-budget)
// run, and its first-bug bookkeeping must stay consistent.
func TestStaticPartitionFirstBugDrain(t *testing.T) {
	bm := mustProgram(t, "philosophers-3")
	const workers = 4
	stop := explore.Options{MaxSteps: 2000, StopAtFirstBug: true}
	full := ParallelDFS(bm.Program, explore.Options{MaxSteps: 2000}, workers)
	if full.FirstViolation == nil {
		t.Fatalf("corpus benchmark lost its deadlock")
	}
	for _, s := range []struct {
		name string
		run  func() explore.Result
	}{
		{"pdfs", func() explore.Result { return ParallelDFS(bm.Program, stop, workers) }},
		{"prandom", func() explore.Result {
			o := stop
			o.ScheduleLimit = 50000
			return ParallelRandomWalk(1, bm.Program, o, workers)
		}},
	} {
		res := s.run()
		if res.FirstViolation == nil {
			t.Fatalf("%s: no violation under StopAtFirstBug", s.name)
		}
		if res.HitLimit {
			t.Errorf("%s: first-bug stop must not report HitLimit", s.name)
		}
		if res.Schedules >= full.Schedules {
			t.Errorf("%s: drained run executed %d schedules, exhaustive run %d — units did not drain",
				s.name, res.Schedules, full.Schedules)
		}
		if res.FirstBugSchedule < 1 || res.FirstBugSchedule > res.Schedules {
			t.Errorf("%s: FirstBugSchedule %d outside [1, %d]", s.name, res.FirstBugSchedule, res.Schedules)
		}
		if err := res.CheckInvariant(); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}
