// Parallel single-search exploration: one engine's schedule space is
// partitioned into disjoint subtrees (or walk-index ranges for the
// random engine) that workers drain from a shared queue, deduplicating
// terminal HBRs/states through one lock-striped explore.Dedup so the
// merged #HBRs/#lazy HBRs/#states counters stay exact.
//
// Exactness guarantees, for deterministic programs explored to
// exhaustion (no limit, no deadline):
//
//   - ParallelDFS matches sequential DFS on every counter, including
//     #schedules (disjoint subtrees partition the set of maximal
//     paths; Events differs because each unit replays its prefix).
//   - ParallelRandomWalk matches sequential NewRandomWalk byte for
//     byte on all counters: walk i is seeded from (seed, i), so the
//     fan-out executes exactly the same multiset of walks.
//   - ParallelDPOR runs one work-stealing DPOR search across the
//     workers (steal.go): with SleepSets off every counter except
//     Events, #schedules included, equals sequential DPOR's; with
//     SleepSets the coverage counters (#HBRs, #lazy HBRs, #states)
//     stay exact.
//
// With a schedule limit, the shared explore.Budget is honoured to
// within workers−1 schedules, but which schedules run first depends on
// worker interleaving.
package campaign

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/model"
)

// unitFactor is how many work units the partitioner aims to create per
// worker; a surplus keeps workers busy when subtree sizes are skewed.
const unitFactor = 8

// workers normalises a worker-count knob.
func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// frontier enumerates disjoint schedule prefixes of src that jointly
// cover its whole space: a breadth-first expansion that stops once at
// least targetUnits prefixes exist (or every prefix is terminal).
// Terminal prefixes stay in the result — they are complete schedules
// the unit engine records as such.
func frontier(src model.Source, targetUnits int) [][]event.ThreadID {
	// maxSplitDepth caps the partition layer: load balance never
	// needs deep splits, and the cap bounds the replay cost of the
	// breadth-first expansion.
	const maxSplitDepth = 32
	type node struct {
		prefix []event.ThreadID
		closed bool
	}
	queue := []node{{}}
	var enabled []event.ThreadID
	for {
		// Find the shallowest expandable prefix.
		expand := -1
		for i, n := range queue {
			if !n.closed && (expand < 0 || len(n.prefix) < len(queue[expand].prefix)) {
				expand = i
			}
		}
		if expand < 0 || len(queue) >= targetUnits {
			break
		}
		n := queue[expand]
		m := model.NewMachine(src)
		for _, t := range n.prefix {
			m.Step(t)
		}
		enabled = m.EnabledThreads(enabled)
		m.Abort()
		// Keep the prefix as a unit when it is terminal or sits at
		// the depth cap. Single-choice states are stepped through in
		// place: they add no breadth but may lead to branching (e.g.
		// a spawn prologue executed by one thread).
		if len(enabled) == 0 || len(n.prefix) >= maxSplitDepth {
			queue[expand].closed = true
			continue
		}
		if len(enabled) == 1 {
			queue[expand].prefix = append(append([]event.ThreadID(nil), n.prefix...), enabled[0])
			continue
		}
		children := make([]node, 0, len(enabled))
		for _, t := range enabled {
			child := append(append([]event.ThreadID(nil), n.prefix...), t)
			children = append(children, node{prefix: child})
		}
		queue = append(queue[:expand], append(children, queue[expand+1:]...)...)
	}
	out := make([][]event.ThreadID, len(queue))
	for i, n := range queue {
		out[i] = n.prefix
	}
	return out
}

// mergeUnits folds per-unit results into one Result whose distinct
// counters come from the shared dedup. Units must be passed in
// partition order so FirstViolation is deterministic.
func mergeUnits(name string, src model.Source, opt explore.Options, dedup *explore.Dedup, units []explore.Result) explore.Result {
	merged := explore.Result{Program: src.Name(), Engine: name}
	for _, u := range units {
		merged.Schedules += u.Schedules
		merged.Terminals += u.Terminals
		merged.Pruned += u.Pruned
		merged.Truncated += u.Truncated
		merged.SleepBlocked += u.SleepBlocked
		merged.Divergences += u.Divergences
		merged.Deadlocks += u.Deadlocks
		merged.AssertFailures += u.AssertFailures
		merged.Panics += u.Panics
		merged.LockErrors += u.LockErrors
		merged.Races += u.Races
		merged.Events += u.Events
		if u.MaxDepth > merged.MaxDepth {
			merged.MaxDepth = u.MaxDepth
		}
		merged.HitLimit = merged.HitLimit || u.HitLimit
		merged.Interrupted = merged.Interrupted || u.Interrupted
		if merged.FirstViolation == nil && u.FirstViolation != nil {
			merged.FirstViolation = u.FirstViolation
			merged.ViolationKind = u.ViolationKind
			// Schedules-to-first-bug in the deterministic unit order:
			// units merged before this one ran to completion without a
			// witness, so their schedules all precede the bug.
			merged.FirstBugSchedule = merged.Schedules - u.Schedules + u.FirstBugSchedule
		}
	}
	merged.DistinctHBRs, merged.DistinctLazyHBRs, merged.DistinctStates = dedup.Counts()
	if opt.RecordStates {
		merged.States = dedup.SortedStates()
	}
	return merged
}

// runUnits drains the unit queue with a worker pool, collecting
// results in unit order.
func runUnits(workers, n int, run func(i int) explore.Result) []explore.Result {
	out := make([]explore.Result, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = run(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ParallelDFS explores src's full schedule space with exhaustive DFS
// fanned across workers (≤0 means GOMAXPROCS): the schedule tree is
// partitioned into disjoint subtrees explored by DFS engines sharing
// one dedup and budget. On exhausted spaces every counter except
// Events matches sequential explore.NewDFS.
func ParallelDFS(src model.Source, opt explore.Options, workers int) explore.Result {
	workers = normWorkers(workers)
	dedup := explore.NewDedup()
	budget := explore.NewBudget(opt.ScheduleLimit)
	prefixes := frontier(src, workers*unitFactor)

	unitOpt := opt
	unitOpt.ScheduleLimit = 0
	unitOpt.Dedup = dedup
	unitOpt.SharedBudget = budget

	// bugFound flips once any unit's search captured a violation under
	// StopAtFirstBug: units already running stop at their own first
	// bug, units not yet started drain as no-ops — mirroring
	// workStealDPOR — so a first-bug cell stops costing budget the
	// moment the bug is found instead of letting sibling subtrees run
	// to exhaustion.
	var bugFound atomic.Bool
	units := runUnits(workers, len(prefixes), func(i int) explore.Result {
		if opt.StopAtFirstBug && bugFound.Load() {
			return explore.Result{}
		}
		if budget != nil && budget.Exhausted() {
			return explore.Result{HitLimit: true}
		}
		o := unitOpt
		o.Prefix = prefixes[i]
		res := explore.NewDFS().Explore(src, o)
		if opt.StopAtFirstBug && res.FirstViolation != nil {
			bugFound.Store(true)
		}
		return res
	})
	return mergeUnits(fmt.Sprintf("pdfs[%d]", workers), src, opt, dedup, units)
}

// ParallelDPOR explores src with work-stealing DPOR: one DPOR search
// spans all workers, exchanging frontier units (donated pending
// backtrack branches, and backtrack points escaping a unit's prefix)
// over a striped steal deque with a shared claim table, so the
// partial-order reduction survives the fan-out. On exhausted spaces
// with SleepSets off, every counter except Events — including
// #schedules — is byte-identical to sequential explore.NewDPOR for
// either backend and every worker count. With SleepSets the coverage
// counters (#HBRs/#lazy HBRs/#states) remain exact while #schedules
// and #sleep-blocked depend on unit boundaries. Result.Steal carries
// the worker/unit statistics.
func ParallelDPOR(src model.Source, opt explore.Options, workers int) explore.Result {
	workers = normWorkers(workers)
	outcomes, dedup, stats := workStealDPOR(src, opt, workers)
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].key < outcomes[j].key })
	units := make([]explore.Result, len(outcomes))
	for i, o := range outcomes {
		units[i] = o.res
	}
	res := mergeUnits(fmt.Sprintf("pdpor[%d]", workers), src, opt, dedup, units)
	res.Steal = &stats
	return res
}

// randomChunk is how many walk indices a worker claims at a time.
const randomChunk = 64

// ParallelRandomWalk runs the seeded random-walk baseline with walk
// indices fanned across workers in chunks. Counters are byte-identical
// to sequential explore.NewRandomWalk(seed) under the same
// ScheduleLimit on deterministic programs.
func ParallelRandomWalk(seed int64, src model.Source, opt explore.Options, workers int) explore.Result {
	workers = normWorkers(workers)
	limit := opt.ScheduleLimit
	if limit <= 0 {
		limit = 1000
	}
	dedup := explore.NewDedup()
	unitOpt := opt
	unitOpt.ScheduleLimit = 0
	unitOpt.Dedup = dedup

	// The same found-flag drain as ParallelDFS: under StopAtFirstBug,
	// walk chunks that have not started yet become no-ops once any
	// chunk found a violation.
	var bugFound atomic.Bool
	nchunks := (limit + randomChunk - 1) / randomChunk
	units := runUnits(workers, nchunks, func(i int) explore.Result {
		if opt.StopAtFirstBug && bugFound.Load() {
			return explore.Result{}
		}
		first := i * randomChunk
		n := randomChunk
		if first+n > limit {
			n = limit - first
		}
		if unitOpt.Ctx != nil && unitOpt.Ctx.Err() != nil {
			return explore.Result{Interrupted: true}
		}
		res := explore.NewRandomWalkRange(seed, first, n).Explore(src, unitOpt)
		if opt.StopAtFirstBug && res.FirstViolation != nil {
			bugFound.Store(true)
		}
		return res
	})
	res := mergeUnits(fmt.Sprintf("prandom[%d]", workers), src, opt, dedup, units)
	// Exhausting the walk budget counts as hitting the limit, matching
	// the sequential baseline — which also leaves HitLimit unset when a
	// first-bug stop (not the budget) ended the run.
	if !res.Interrupted && !(opt.StopAtFirstBug && res.FirstViolation != nil) {
		res.HitLimit = true
	}
	return res
}

// parallelEngine adapts the parallel searches to explore.Engine so
// campaigns and benchmarks can treat them like any other engine.
type parallelEngine struct {
	kind    string
	workers int
	seed    int64
}

// NewParallelDFS returns ParallelDFS as an explore.Engine.
func NewParallelDFS(workers int) explore.Engine {
	return &parallelEngine{kind: "pdfs", workers: workers}
}

// NewParallelDPOR returns the work-stealing ParallelDPOR as an
// explore.Engine.
func NewParallelDPOR(workers int) explore.Engine {
	return &parallelEngine{kind: "pdpor", workers: workers}
}

// NewParallelRandomWalk returns ParallelRandomWalk as an
// explore.Engine.
func NewParallelRandomWalk(seed int64, workers int) explore.Engine {
	return &parallelEngine{kind: "prandom", workers: workers, seed: seed}
}

// Name implements explore.Engine.
func (e *parallelEngine) Name() string {
	return fmt.Sprintf("%s[%d]", e.kind, normWorkers(e.workers))
}

// Explore implements explore.Engine.
func (e *parallelEngine) Explore(src model.Source, opt explore.Options) explore.Result {
	switch e.kind {
	case "pdpor":
		return ParallelDPOR(src, opt, e.workers)
	case "prandom":
		return ParallelRandomWalk(e.seed, src, opt, e.workers)
	default:
		return ParallelDFS(src, opt, e.workers)
	}
}
