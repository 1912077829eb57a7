package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/explore"
	"repro/sct"
)

// maxFailureNotes bounds how many failure reasons a run keeps.
const maxFailureNotes = 20

// recorder accumulates one run's measurements, checks every search
// against the oracle, and reproduces every bug found.
type recorder struct {
	traced bool
	pass   int
	t0     time.Time // run start, the origin of span times

	// searchNs holds, per search of the grid, its wall time in every
	// pass; reproNs, per search that found a known bug, the time from
	// its start to a minimized, replay-verified counterexample.
	searchNs, reproNs [][]float64
	// timed is the wall time of the run's passes, less what the
	// workload keeps out of its timed section.
	timed     time.Duration
	completed int
	// peakRSS is the process's VmHWM after the first pass, in MiB.
	peakRSS float64

	attempted, failed, defects int
	buggy, bugsFound           int
	schedulesToBug             int64 // over the first pass
	failures                   []string
	states                     stateAgreement
	// reproDur is the time spent reproducing counterexamples; the
	// paper-figs workload keeps it out of its timed section.
	reproDur time.Duration
	// settleHeap makes the recorder collect the heap before each search
	// and each reproduction (paper-figs), so their times do not depend
	// on the garbage left by what ran before them in the seeded order.
	// gcDur is the time those collections took; paper-figs keeps it out
	// of its timed section.
	settleHeap bool
	gcDur      time.Duration

	// holdRepros makes outcome hold reproductions in held instead of
	// running them: a campaign pass runs them after its last cell, so
	// they do not take CPU time from the workers while cells are
	// timed, and a traced pass reads its allocation count before them,
	// so explore.allocs_per_event and explore.bytes_per_event count
	// exploration only.
	holdRepros bool
	held       []func()

	// Traced runs only.
	spans      []span
	searchSpan int // span of the search being checked

	ctr                         sct.Progress // summed over the first traced pass
	ctrSearches, replaySearches int
	mallocs, allocBytes         uint64
	allocEvents                 int64
	minimizeMs, minimizeReplays []float64
	shrink, replayUs            []float64
	queueWaitMs                 []float64
	busy, campWall              time.Duration
	workers                     int
}

// span is one timed call the benchmark made into the system.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Program string `json:"program,omitempty"`
	Engine  string `json:"engine,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newRecorder(traced bool, t0 time.Time, searches int) *recorder {
	return &recorder{traced: traced, t0: t0, states: stateAgreement{},
		searchNs: make([][]float64, searches), reproNs: make([][]float64, searches)}
}

// rate is the searches completed per second of timed wall.
func (r *recorder) rate() float64 {
	return float64(r.completed) / r.timed.Seconds()
}

// settle collects the heap when settleHeap is set.
func (r *recorder) settle() {
	if !r.settleHeap {
		return
	}
	start := time.Now()
	runtime.GC()
	r.gcDur += time.Since(start)
}

// perSearch reduces per-pass samples to each search's fastest. Noise on
// a shared host only ever adds time, so the fastest pass is the one it
// added least to.
func perSearch(samples [][]float64, scale float64) []float64 {
	var out []float64
	for _, xs := range samples {
		if len(xs) > 0 {
			out = append(out, slices.Min(xs)/scale)
		}
	}
	return out
}

// addSpan records a span of the first traced pass (later passes
// repeat it) and returns its ID, or 0 when it records nothing.
func (r *recorder) addSpan(parent int, name string, s search, start time.Time, d time.Duration) int {
	if !r.traced || r.pass > 0 {
		return 0
	}
	id := len(r.spans) + 1
	st := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Program: s.Program, Engine: s.Engine,
		StartNs: st, EndNs: st + d.Nanoseconds()})
	return id
}

func (r *recorder) fail(s search, reason string) {
	r.attempted++
	r.failed++
	r.note(s, reason)
}

func (r *recorder) note(s search, reason string) {
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf("%s/%s: %s", s.Program, s.Engine, reason))
	}
}

// searchTrace is the traced-run state of one in-flight search.
type searchTrace struct {
	ms       runtime.MemStats
	counters *sct.Counters
	progress *sct.Progress
	start    time.Time
}

// beginSearch arms a traced search: an allocation baseline, and
// counters through opt when the search runs on Options (a search through
// sct.Run reports its counters through an observer instead). It returns
// nil in untraced runs.
func (r *recorder) beginSearch(opt *sct.Options) *searchTrace {
	if !r.traced {
		return nil
	}
	tr := &searchTrace{}
	if opt != nil {
		tr.counters = explore.NewCounters()
		opt.Counters = tr.counters
	}
	runtime.ReadMemStats(&tr.ms)
	tr.start = time.Now()
	return tr
}

func (r *recorder) endSearch(tr *searchTrace, s search, res sct.Result, d time.Duration, backend string) {
	if tr == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - tr.ms.Mallocs
	r.allocBytes += ms.TotalAlloc - tr.ms.TotalAlloc
	r.allocEvents += res.Events
	var p sct.Progress
	if tr.counters != nil {
		p, backend = tr.counters.Snapshot(), tr.counters.Backend()
	} else if tr.progress != nil {
		p = *tr.progress
	}
	r.addCounters(p, backend)
	r.searchSpan = r.addSpan(0, "search", s, tr.start, d)
}

func (r *recorder) addCounters(p sct.Progress, backend string) {
	if r.pass > 0 {
		return // counts are per grid pass; every pass repeats the first
	}
	r.ctr.Schedules += p.Schedules
	r.ctr.Terminals += p.Terminals
	r.ctr.Pruned += p.Pruned
	r.ctr.SleepBlocked += p.SleepBlocked
	r.ctr.Events += p.Events
	r.ctr.Backtracks += p.Backtracks
	r.ctr.DedupHits += p.DedupHits
	r.ctr.DedupMisses += p.DedupMisses
	r.ctrSearches++
	if backend == "replay" {
		r.replaySearches++
	}
}

// beginCampaign holds the reproductions of a campaign pass back until
// its end, and takes its allocation baseline in a traced run.
func (r *recorder) beginCampaign() *runtime.MemStats {
	r.holdRepros = true
	if !r.traced {
		return nil
	}
	ms := new(runtime.MemStats)
	runtime.ReadMemStats(ms)
	return ms
}

func (r *recorder) campaignCell(parent int, s search, res sct.Result, start time.Time, wait, d time.Duration, ctr *sct.Counters) {
	if !r.traced {
		return
	}
	r.queueWaitMs = append(r.queueWaitMs, float64(wait.Nanoseconds())/1e6)
	r.busy += d
	r.allocEvents += res.Events
	if ctr != nil {
		r.addCounters(ctr.Snapshot(), ctr.Backend())
	}
	r.searchSpan = r.addSpan(parent, "cell", s, start, d)
}

func (r *recorder) endCampaign(span int, before *runtime.MemStats, wall time.Duration, workers int) {
	if before == nil {
		return
	}
	if span > 0 {
		r.spans[span-1].EndNs = r.spans[span-1].StartNs + wall.Nanoseconds()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - before.Mallocs
	r.allocBytes += ms.TotalAlloc - before.TotalAlloc
	r.campWall += wall
	r.workers = workers
}

// outcome checks a finished search and, when it found a known bug,
// reproduces it: counterexample, Minimize, Replay.
func (r *recorder) outcome(s search, res sct.Result, d time.Duration, rep *sct.Report) {
	r.attempted++
	r.completed++
	r.searchNs[s.idx] = append(r.searchNs[s.idx], float64(d.Nanoseconds()))
	class, reason := checkSearch(res, s.want, completeEngine(s.Engine))
	if class == verdictOK && exhausted(res, s.Engine, s.firstBug) {
		if why := r.states.check(s.Program, s.Engine, res.DistinctStates); why != "" {
			class, reason = verdictFailed, why
		}
	}
	switch class {
	case verdictFailed:
		r.failed++
		r.note(s, reason)
		return
	case verdictDefect:
		r.defects++
		return
	}
	if !s.want.Bug {
		return
	}
	r.buggy++
	found := res.ViolationKind != ""
	if r.pass == 0 {
		if found {
			r.schedulesToBug += int64(res.FirstBugSchedule)
		} else {
			r.schedulesToBug += int64(res.Schedules)
		}
	}
	if !found {
		return
	}
	r.bugsFound++
	parent := r.searchSpan
	repro := func() {
		r.searchSpan = parent
		r.settle()
		rd, err := r.reproduce(s, res, rep)
		r.reproDur += rd
		if err != nil {
			r.failed++
			r.note(s, err.Error())
			return
		}
		r.reproNs[s.idx] = append(r.reproNs[s.idx], float64((d + rd).Nanoseconds()))
	}
	if r.holdRepros {
		r.held = append(r.held, repro)
		return
	}
	repro()
}

// runHeld runs the reproductions held back since holdRepros was set,
// and clears it.
func (r *recorder) runHeld() {
	for _, repro := range r.held {
		repro()
	}
	r.held, r.holdRepros = nil, false
}

func (r *recorder) reproduce(s search, res sct.Result, rep *sct.Report) (time.Duration, error) {
	start := time.Now()
	var cx *sct.Counterexample
	var err error
	if rep != nil {
		cx, err = rep.Counterexample()
	} else {
		cx, err = sct.NewCounterexample(s.src, res, s.maxSteps)
	}
	if err != nil {
		return time.Since(start), fmt.Errorf("counterexample: %w", err)
	}
	tMin := time.Now()
	stats, err := cx.Minimize()
	dMin := time.Since(tMin)
	if err != nil {
		return time.Since(start), fmt.Errorf("minimize: %w", err)
	}
	tRep := time.Now()
	_, err = cx.Replay(s.src)
	dRep := time.Since(tRep)
	total := time.Since(start)
	if err != nil {
		return total, fmt.Errorf("replay of the minimized counterexample: %w", err)
	}
	if cx.Kind() != res.ViolationKind {
		return total, fmt.Errorf("minimized counterexample reproduces %q, search found %q", cx.Kind(), res.ViolationKind)
	}
	if r.traced {
		id := r.addSpan(r.searchSpan, "repro", s, start, total)
		r.addSpan(id, "minimize", s, tMin, dMin)
		r.addSpan(id, "replay", s, tRep, dRep)
		r.minimizeMs = append(r.minimizeMs, float64(dMin.Nanoseconds())/1e6)
		r.minimizeReplays = append(r.minimizeReplays, float64(stats.Replays))
		if stats.OriginalChoices > 0 {
			r.shrink = append(r.shrink, float64(stats.MinChoices)/float64(stats.OriginalChoices))
		}
		r.replayUs = append(r.replayUs, float64(dRep.Nanoseconds())/1e3)
	}
	return total, nil
}
