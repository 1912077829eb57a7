package explore

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/event"
	"repro/internal/model"
)

// TestTelemetryNilWhenUnarmed: plain options allocate no telemetry at
// all — the zero-cost-when-disabled half of the observer contract.
func TestTelemetryNilWhenUnarmed(t *testing.T) {
	if tel := newTelemetry(Options{}, "p", "e"); tel != nil {
		t.Fatalf("unarmed options built telemetry %+v", tel)
	}
}

// TestObserverGetsPrivateCounters: an observer without caller-supplied
// counters still snapshots from somewhere.
func TestObserverGetsPrivateCounters(t *testing.T) {
	tel := newTelemetry(Options{Observer: &Observer{OnProgress: func(Progress) {}}}, "p", "e")
	if tel == nil || tel.ctr == nil {
		t.Fatal("observer without counters must get a private set")
	}
}

// TestObserverCadenceAndFinalSnapshot: with EverySchedules=1 the
// observer fires at every boundary plus once at the end, snapshots are
// monotone, and the final snapshot equals the result.
func TestObserverCadenceAndFinalSnapshot(t *testing.T) {
	src := curatedSharedCounter()
	var snaps []Progress
	ctr := NewCounters()
	res := NewDPOR(false).Explore(src, Options{
		MaxSteps: 2000,
		Counters: ctr,
		Observer: &Observer{
			EverySchedules: 1,
			Every:          time.Hour, // only the schedule cadence drives this test
			OnProgress:     func(p Progress) { snaps = append(snaps, p) },
		},
	})
	if len(snaps) < 2 {
		t.Fatalf("observer fired %d times for a %d-schedule search", len(snaps), res.Schedules)
	}
	prev := int64(-1)
	for i, p := range snaps {
		if p.Program != src.Name() || p.Engine != "dpor" {
			t.Fatalf("snapshot %d identity: program=%q engine=%q", i, p.Program, p.Engine)
		}
		if p.Schedules < prev {
			t.Fatalf("snapshot %d went backwards: %d after %d", i, p.Schedules, prev)
		}
		prev = p.Schedules
		if p.Elapsed < 0 {
			t.Fatalf("snapshot %d has negative elapsed %v", i, p.Elapsed)
		}
	}
	final := snaps[len(snaps)-1]
	if final.Schedules != int64(res.Schedules) || final.Terminals != int64(res.Terminals) || final.Events != res.Events {
		t.Errorf("final snapshot %+v disagrees with result %+v", final, res)
	}
	if final.Backend == "" {
		t.Error("final snapshot never resolved the backend")
	}
	if ctr.Schedules.Load() != int64(res.Schedules) {
		t.Errorf("Counters.Schedules = %d, want %d", ctr.Schedules.Load(), res.Schedules)
	}
}

// TestFlightRecorderRing: the ring keeps the most recent capacity
// entries oldest-first, and snapshots are isolated from later mutation
// of the recorded choice slices.
func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	choices := []event.ThreadID{0, 1}
	for i := 1; i <= 10; i++ {
		fr.record(int64(i), "terminal", "", choices)
	}
	choices[0] = 99 // must not reach into recorded entries
	got := fr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(got))
	}
	for i, e := range got {
		if want := int64(7 + i); e.Schedule != want {
			t.Errorf("entry %d: schedule %d, want %d (oldest-first, most recent kept)", i, e.Schedule, want)
		}
		if e.Outcome != "terminal" {
			t.Errorf("entry %d outcome %q", i, e.Outcome)
		}
		if e.Choices[0] == 99 {
			t.Error("recorded choices alias the caller's slice")
		}
		if e.Depth != len(choices) {
			t.Errorf("entry %d depth %d, want %d", i, e.Depth, len(choices))
		}
	}
}

// TestFlightRecorderCapturesOutcomes: a real search with a flight
// recorder armed records one entry per schedule with the outcome mix
// the result reports.
func TestFlightRecorderCapturesOutcomes(t *testing.T) {
	src := curatedSharedCounter()
	fr := NewFlightRecorder(1024)
	res := NewDPOR(false).Explore(src, Options{MaxSteps: 2000, Flight: fr})
	entries := fr.Snapshot()
	if len(entries) != res.Schedules {
		t.Fatalf("flight recorded %d entries for %d schedules", len(entries), res.Schedules)
	}
	terminals := 0
	for _, e := range entries {
		if e.Outcome == "terminal" {
			terminals++
		}
		if len(e.Choices) == 0 || e.Depth != len(e.Choices) {
			t.Errorf("entry %+v has no schedule prefix", e)
		}
	}
	if terminals != res.Terminals {
		t.Errorf("flight saw %d terminals, result %d", terminals, res.Terminals)
	}
}

// TestValidateObservability: malformed observer options fail Validate
// before any exploration.
func TestValidateObservability(t *testing.T) {
	bad := []Options{
		{Observer: &Observer{}}, // nil OnProgress
		{Observer: &Observer{OnProgress: func(Progress) {}, EverySchedules: -1}},  // negative cadence
		{Observer: &Observer{OnProgress: func(Progress) {}, Every: -time.Second}}, // negative interval
	}
	for i, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("options %d validated despite malformed observer", i)
		}
	}
	ok := Options{Observer: &Observer{OnProgress: func(Progress) {}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("well-formed observer rejected: %v", err)
	}
}

// TestCountersBackendLatch: Backend() is empty until resolved, then
// names the cursor backend the search actually used.
func TestCountersBackendLatch(t *testing.T) {
	ctr := NewCounters()
	if got := ctr.Backend(); got != "" {
		t.Fatalf("unresolved backend reads %q, want empty", got)
	}
	NewDFS().Explore(curatedSharedCounter(), Options{MaxSteps: 2000, Counters: ctr, Backend: BackendReplay})
	if got := ctr.Backend(); got != BackendReplay.String() {
		t.Fatalf("Backend() = %q, want %q", got, BackendReplay.String())
	}
}

// TestTelemetryNamesBackendFromFirstSnapshot: the backend is latched
// when the cursor is built, so a search that ends after a handful of
// resets — a first-bug hunt — still names it, in the shared Counters
// and in every Progress snapshot.
func TestTelemetryNamesBackendFromFirstSnapshot(t *testing.T) {
	bm, ok := bench.ByName("counter-racy-2x2")
	if !ok {
		t.Fatal("missing benchmark counter-racy-2x2")
	}
	for _, tc := range []struct {
		name string
		src  model.Source
		want string
	}{
		{"first-bug dfs", bm.Program, "undo"},
		{"goharness first-bug dfs", buildHarnessVariant("latch", 2, false, true), "replay"},
	} {
		ctr := NewCounters()
		var seen []string
		res := NewDFS().Explore(tc.src, Options{
			MaxSteps: 2000, StopAtFirstBug: true, Counters: ctr,
			Observer: &Observer{
				EverySchedules: 1,
				OnProgress:     func(p Progress) { seen = append(seen, p.Backend) },
			},
		})
		if res.FirstViolation == nil {
			t.Fatalf("%s: no bug found", tc.name)
		}
		if got := ctr.Backend(); got != tc.want {
			t.Errorf("%s: Counters.Backend() = %q, want %q", tc.name, got, tc.want)
		}
		for i, b := range seen {
			if b != tc.want {
				t.Errorf("%s: snapshot %d of %d names backend %q, want %q", tc.name, i+1, len(seen), b, tc.want)
				break
			}
		}
	}
}
