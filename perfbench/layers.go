package main

import (
	"context"
	"math/rand/v2"
	"time"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/hb"
	"repro/internal/model"
	"repro/sct"
)

// perLayer lists the traced metrics the result line carries, in order;
// BENCHMARK.json names the same set. A layer a workload never calls
// reports 0 there (see README, "Per-layer metrics").
var perLayer = []string{
	"hb.apply_ns.access", "hb.apply_ns.lock", "hb.apply_ns.thread", "hb.apply_ns.chan",
	"hb.undo_ns_per_event", "hb.new_tracker_us",
	"model.step_ns", "model.enabled_ns", "model.statesig_ns", "model.undo_ns_per_step", "model.new_machine_us",
	"explore.schedules", "explore.events", "explore.events_per_schedule", "explore.backtracks",
	"explore.pruned_share", "explore.sleep_blocked_share", "explore.dedup_hit_ratio", "explore.dedup_add_ns",
	"explore.replay_backend_share", "explore.allocs_per_event", "explore.bytes_per_event",
	"progdsl.resume_ns", "progdsl.snapshot_ns",
	"goharness.handshake_ns", "goharness.start_us", "goharness.abort_us",
	"exec.replay_us_per_schedule",
	"repro.minimize_ms", "repro.minimize_replays", "repro.shrink_ratio", "repro.replay_us",
	"campaign.queue_wait_ms_p50", "campaign.worker_busy_share",
	"sct.run_overhead_us",
	"trace.overhead_share",
}

// Layer-probe budget per program.
const (
	probeUndoWalks    = 40  // seeded schedules walked with undo rewinds
	probeReplayWalks  = 8   // schedules walked from scratch (no undo)
	probeReplays      = 5   // recorded schedules re-run through exec.Replay
	probeOpsPerThread = 200 // visible operations driven per coroutine
	probeOverheadReps = 3   // sct.Run / Engine.Explore alternations
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// fillPerLayer derives the per-layer metrics the traced grid passes
// measured: counters, allocations, spans around repro and campaign
// calls, and the tracing overhead against the untraced searches per
// second.
func fillPerLayer(res *resultFile, rec *recorder, untraced float64) {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	c := rec.ctr
	set("explore.schedules", float64(c.Schedules), "count")
	set("explore.events", float64(c.Events), "count")
	set("explore.events_per_schedule", ratio(float64(c.Events), float64(c.Schedules)), "count")
	set("explore.backtracks", float64(c.Backtracks), "count")
	set("explore.pruned_share", ratio(float64(c.Pruned), float64(c.Schedules)), "share")
	set("explore.sleep_blocked_share", ratio(float64(c.SleepBlocked), float64(c.Schedules)), "share")
	set("explore.dedup_hit_ratio", ratio(float64(c.DedupHits), float64(c.DedupHits+c.DedupMisses)), "share")
	set("explore.replay_backend_share", ratio(float64(rec.replaySearches), float64(rec.ctrSearches)), "share")
	set("explore.allocs_per_event", ratio(float64(rec.mallocs), float64(rec.allocEvents)), "count")
	set("explore.bytes_per_event", ratio(float64(rec.allocBytes), float64(rec.allocEvents)), "B")

	set("repro.minimize_ms", nz(percentile(rec.minimizeMs, 50)), "ms")
	set("repro.minimize_replays", mean(rec.minimizeReplays), "count")
	set("repro.shrink_ratio", mean(rec.shrink), "share")
	set("repro.replay_us", nz(percentile(rec.replayUs, 50)), "us")

	set("campaign.queue_wait_ms_p50", nz(percentile(rec.queueWaitMs, 50)), "ms")
	busy := 0.0
	if rec.campWall > 0 && rec.workers > 0 {
		busy = rec.busy.Seconds() / (rec.campWall.Seconds() * float64(rec.workers))
	}
	set("campaign.worker_busy_share", busy, "share")

	traced := rec.rate()
	set("trace.searches_per_s", traced, "1/s")
	set("trace.untraced_searches_per_s", untraced, "1/s")
	set("trace.overhead_share", 1-ratio(traced, untraced), "share")
}

// nz maps the NaN of an empty sample to 0, the value a layer the
// workload never reached reports.
func nz(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// probe accumulates per-call timings of one layer function.
type probe struct {
	ns float64
	n  int64
}

func (p *probe) add(d time.Duration, n int64) {
	p.ns += float64(d.Nanoseconds()) - clockNs*float64(min(n, 1))
	p.n += n
}

func (p *probe) per() float64 { return max(0, ratio(p.ns, float64(p.n))) }

// clockNs is the cost of one time.Now/time.Since pair, subtracted from
// every single-call probe timing.
var clockNs float64

func calibrateClock() {
	xs := make([]float64, 0, 2001)
	for i := 0; i < 2001; i++ {
		t := time.Now()
		xs = append(xs, float64(time.Since(t).Nanoseconds()))
	}
	clockNs = median(xs)
}

// probeLayers drives the layers the engines only call internally — the
// machine, the tracker, the dedup sets, the coroutine frontends and the
// executor — along seeded schedules of the workload's own programs, in
// the call mix of an undo-backtracking engine, and times each call.
func probeLayers(p *plan, seed int64, out map[string]metric) error {
	calibrateClock()
	rng := rand.New(rand.NewPCG(uint64(seed), 4))
	var apply [4]probe
	var undoHB, newTracker, step, enabled, sig, undoM, newMachine, dedupAdd probe
	var resume, snapshot, handshake, start, abort, replay probe
	var recorded [][]event.ThreadID
	var recordedSrc []sct.Source

	for _, src := range p.programs {
		_, closure := src.(*sct.Program)
		walks := probeUndoWalks
		if closure {
			walks = probeReplayWalks
		}
		d := explore.NewDedup()
		var m *model.Machine
		var tr *hb.Tracker
		var mMarks, tMarks []int
		var path []event.ThreadID
		fresh := func() {
			if m != nil {
				m.Abort()
			}
			t := time.Now()
			m = model.NewMachine(src)
			newMachine.add(time.Since(t), 1)
			t = time.Now()
			tr = hb.NewTrackerChans(src.NumThreads(), src.NumVars(), src.NumMutexes(), model.NumChannels(src))
			newTracker.add(time.Since(t), 1)
			mMarks, tMarks, path = mMarks[:0], tMarks[:0], path[:0]
		}
		fresh()
		undo := !closure && m.EnableUndo()
		if undo {
			tr.EnableUndo()
		}
		buf := make([]event.ThreadID, 0, src.NumThreads())
		for w := 0; w < walks; w++ {
			for len(path) < paperMaxSteps {
				t := time.Now()
				buf = m.EnabledThreads(buf[:0])
				enabled.add(time.Since(t), 1)
				if len(buf) == 0 {
					break
				}
				th := buf[rng.IntN(len(buf))]
				if undo {
					mMarks, tMarks = append(mMarks, m.UndoMark()), append(tMarks, tr.UndoMark())
				}
				t = time.Now()
				ev := m.Step(th)
				step.add(time.Since(t), 1)
				t = time.Now()
				tr.ApplyFast(ev)
				apply[applyClass(ev.Kind)].add(time.Since(t), 1)
				path = append(path, th)
			}
			t := time.Now()
			s := m.StateSig()
			sig.add(time.Since(t), 1)
			hfp, lfp := tr.HBFingerprint(), tr.LazyFingerprint()
			t = time.Now()
			d.AddHBR(hfp)
			d.AddLazy(lfp)
			d.AddState(s)
			dedupAdd.add(time.Since(t), 3)
			if w < probeReplays {
				recorded = append(recorded, append([]event.ThreadID(nil), path...))
				recordedSrc = append(recordedSrc, src)
			}
			if !undo {
				fresh()
				continue
			}
			if len(path) == 0 {
				continue
			}
			back := rng.IntN(len(path))
			n := int64(len(path) - back)
			t = time.Now()
			m.UndoTo(mMarks[back])
			undoM.add(time.Since(t), n)
			t = time.Now()
			tr.UndoTo(tMarks[back])
			undoHB.add(time.Since(t), n)
			mMarks, tMarks, path = mMarks[:back], tMarks[:back], path[:back]
		}
		m.Abort()
		probeCoroutines(src, closure, &resume, &snapshot, &handshake, &start, &abort)
	}
	for i, ch := range recorded {
		t := time.Now()
		exec.Replay(recordedSrc[i], ch, exec.Options{MaxSteps: paperMaxSteps})
		replay.add(time.Since(t), 1)
	}
	overhead, err := runOverhead(p)
	if err != nil {
		return err
	}

	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	for i, name := range []string{"access", "lock", "thread", "chan"} {
		set("hb.apply_ns."+name, apply[i].per(), "ns")
	}
	set("hb.undo_ns_per_event", undoHB.per(), "ns")
	set("hb.new_tracker_us", newTracker.per()/1e3, "us")
	set("model.step_ns", step.per(), "ns")
	set("model.enabled_ns", enabled.per(), "ns")
	set("model.statesig_ns", sig.per(), "ns")
	set("model.undo_ns_per_step", undoM.per(), "ns")
	set("model.new_machine_us", newMachine.per()/1e3, "us")
	set("explore.dedup_add_ns", dedupAdd.per(), "ns")
	set("progdsl.resume_ns", resume.per(), "ns")
	set("progdsl.snapshot_ns", snapshot.per(), "ns")
	set("goharness.handshake_ns", handshake.per(), "ns")
	set("goharness.start_us", start.per()/1e3, "us")
	set("goharness.abort_us", abort.per()/1e3, "us")
	set("exec.replay_us_per_schedule", replay.per()/1e3, "us")
	set("sct.run_overhead_us", overhead, "us")
	set("trace.clock_ns", clockNs, "ns")
	return nil
}

// applyClass splits tracker events by kind: variable accesses, mutex
// operations, thread-structure events and channel operations.
func applyClass(k event.Kind) int {
	switch {
	case k == event.KindRead || k == event.KindWrite:
		return 0
	case k == event.KindLock || k == event.KindUnlock:
		return 1
	case k.IsChanOp():
		return 3
	}
	return 2
}

// probeCoroutines drives each thread's coroutine alone through its
// Peek/Resume handshake, feeding each operation a well-formed result.
// progdsl coroutines are also snapshotted at every operation; goharness
// coroutines are timed at start and abort.
func probeCoroutines(src sct.Source, closure bool, resume, snapshot, handshake, start, abort *probe) {
	for t := 0; t < src.NumThreads(); t++ {
		tid := event.ThreadID(t)
		t0 := time.Now()
		co := src.Start(tid)
		if closure {
			start.add(time.Since(t0), 1)
		}
		hs := resume
		if closure {
			hs = handshake
		}
		for i := 0; i < probeOpsPerThread; i++ {
			if !closure {
				if sn, ok := co.(model.Snapshottable); ok {
					t0 = time.Now()
					sn.Snapshot()
					snapshot.add(time.Since(t0), 1)
				}
			}
			t0 = time.Now()
			op, ok := co.Peek()
			if !ok {
				hs.add(time.Since(t0), 1)
				break
			}
			co.Resume(probeResult(op))
			hs.add(time.Since(t0), 1)
		}
		if a, ok := co.(model.Abortable); ok {
			a.Abort() // a thread still running after the op budget
		}
		if closure {
			co = src.Start(tid)
			co.Peek()
			t0 = time.Now()
			co.(model.Abortable).Abort()
			abort.add(time.Since(t0), 1)
		}
	}
}

// probeResult is a well-formed result for a pending operation.
func probeResult(op event.Op) int64 {
	switch op.Kind {
	case event.KindRead:
		return 1
	case event.KindRecv:
		return event.PackRecvResult(1, true)
	case event.KindSelect:
		mask := event.SelectCases(op.Val)
		for c := int32(0); c < event.MaxSelectChans; c++ {
			if mask&(1<<c) != 0 {
				return event.PackSelectResult(c, 1, true)
			}
		}
	}
	return 0
}

// runOverhead measures what sct.Run adds to Engine.Explore (spec
// resolution, option compilation, the invariant check and the witness
// replay) on the workload's cheapest bug-finding searches: the median
// over programs of median(Run) - median(Explore), in microseconds.
func runOverhead(p *plan) (float64, error) {
	type cand struct {
		src      sct.Source
		spec     string
		firstBug bool
	}
	var cands []cand
	seen := map[string]bool{}
	for _, s := range p.searches {
		if seen[s.Program] || !s.want.Bug {
			continue
		}
		seen[s.Program] = true
		if p.workload == "sct-closures" {
			cands = append(cands, cand{s.src, "dpor+sleep", false})
		} else {
			cands = append(cands, cand{s.src, "dpor", true})
		}
	}
	var diffs []float64
	for _, c := range cands {
		var run, expl []float64
		for i := 0; i < probeOverheadReps; i++ {
			opts := []sct.Option{sct.WithBounds(paperLimit, paperMaxSteps)}
			if c.firstBug {
				opts = append(opts, sct.StopAtFirstBug())
			}
			t := time.Now()
			if _, err := sct.Run(context.Background(), c.src, c.spec, opts...); err != nil {
				return 0, err
			}
			run = append(run, float64(time.Since(t).Nanoseconds()))
			eng, err := sct.NewEngine(c.spec)
			if err != nil {
				return 0, err
			}
			t = time.Now()
			eng.Explore(c.src, sct.Options{ScheduleLimit: paperLimit, MaxSteps: paperMaxSteps, StopAtFirstBug: c.firstBug})
			expl = append(expl, float64(time.Since(t).Nanoseconds()))
		}
		diffs = append(diffs, (median(run)-median(expl))/1e3)
	}
	return nz(median(diffs)), nil
}
