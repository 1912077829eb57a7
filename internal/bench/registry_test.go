package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// TestCorpusSize pins the corpus size: the paper's 79 plus the
// channel family.
func TestCorpusSize(t *testing.T) {
	all := All()
	if len(all) != Count {
		t.Fatalf("corpus has %d benchmarks, want %d", len(all), Count)
	}
	for i, b := range all {
		if b.ID != i+1 {
			t.Errorf("benchmark %q has ID %d, want %d", b.Name, b.ID, i+1)
		}
		if b.Name == "" || b.Family == "" || b.Notes == "" || b.Program == nil {
			t.Errorf("benchmark %d has incomplete metadata: %+v", i+1, b)
		}
	}
}

// TestEveryBenchmarkRuns executes one deterministic schedule of every
// benchmark and checks it terminates within the depth bound.
func TestEveryBenchmarkRuns(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			out := exec.Run(b.Program, exec.FirstEnabled{}, exec.Options{MaxSteps: 2000})
			if out.Truncated {
				t.Fatalf("default schedule of %s truncated at %d events", b.Name, len(out.Trace))
			}
			if len(out.Trace) == 0 {
				t.Fatalf("%s executed no events", b.Name)
			}
		})
	}
}

// TestEveryBenchmarkReplayDeterministic checks that replaying a
// recorded schedule reproduces the identical outcome — the property
// every SCT result in this repository rests on.
func TestEveryBenchmarkReplayDeterministic(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			first := exec.Run(b.Program, exec.NewRandom(42), exec.Options{MaxSteps: 2000})
			again := exec.Replay(b.Program, first.Choices, exec.Options{MaxSteps: 2000})
			if first.StateKey != again.StateKey {
				t.Fatalf("replay diverged:\n first=%s\nsecond=%s", first.StateKey, again.StateKey)
			}
			if first.HBFP != again.HBFP || first.LazyFP != again.LazyFP {
				t.Fatalf("replay produced different happens-before fingerprints")
			}
		})
	}
}

// TestEveryBenchmarkInvariant runs a capped DPOR exploration over the
// whole corpus and asserts the paper's inequality chain
// #states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules on every benchmark.
func TestEveryBenchmarkInvariant(t *testing.T) {
	eng := explore.NewDPOR(false)
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res := eng.Explore(b.Program, explore.Options{ScheduleLimit: 300, MaxSteps: 2000})
			if err := res.CheckInvariant(); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if res.Terminals == 0 && res.Truncated == 0 {
				t.Fatalf("%s: exploration made no progress: %+v", b.Name, res)
			}
		})
	}
}

// TestDeadlockBenchmarks checks that the deadlocking philosopher
// variants actually deadlock and the ordered ones do not.
func TestDeadlockBenchmarks(t *testing.T) {
	eng := explore.NewDFS()
	cases := map[string]bool{
		"philosophers-2":         true,
		"philosophers-3":         true,
		"philosophers-ordered-2": false,
		"philosophers-ordered-3": false,
	}
	for name, wantDeadlock := range cases {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		res := eng.Explore(b.Program, explore.Options{ScheduleLimit: 50000, MaxSteps: 2000})
		if (res.Deadlocks > 0) != wantDeadlock {
			t.Errorf("%s: deadlocks=%d, wantDeadlock=%v (%v)", name, res.Deadlocks, wantDeadlock, res.String())
		}
	}
}

// listing renders everything a lookup must reproduce about a program:
// its shape and, for interpreter programs, every thread's code.
func listing(src model.Source) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%T %s threads=%d vars=%d mutexes=%d running=%v\n", src, src.Name(),
		src.NumThreads(), src.NumVars(), src.NumMutexes(), src.InitiallyRunning())
	if p, ok := src.(*progdsl.Program); ok {
		for t := 0; t < src.NumThreads(); t++ {
			sb.WriteString(p.Disassemble(event.ThreadID(t)))
		}
	}
	return sb.String()
}

// TestLookup checks that resolving one program by name or ID yields
// exactly the entry All() or Hostile() lists — the same ID, metadata
// and program code — that two builds of the corpus agree, so the
// shared registration table holds no build state, and that unknown
// names and out-of-range IDs miss.
func TestLookup(t *testing.T) {
	all, again := All(), All()
	if names := Names(); len(names) != len(all) {
		t.Fatalf("Names() lists %d names, All() %d benchmarks", len(names), len(all))
	}
	check := func(how string, got, want Benchmark) {
		t.Helper()
		if got.ID != want.ID || got.Name != want.Name || got.Family != want.Family || got.Notes != want.Notes {
			t.Errorf("%s = {%d %q %q %q}, want {%d %q %q %q}", how,
				got.ID, got.Name, got.Family, got.Notes, want.ID, want.Name, want.Family, want.Notes)
		}
		if g, w := listing(got.Program), listing(want.Program); g != w {
			t.Errorf("%s program differs:\n got %s\nwant %s", how, g, w)
		}
	}
	for i, name := range Names() {
		want := all[i]
		if want.Name != name {
			t.Fatalf("Names()[%d] = %q, All()[%d] is %q", i, name, i, want.Name)
		}
		check("second All()["+name+"]", again[i], want)
		got, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) missed", name)
		}
		check("ByName("+name+")", got, want)
		got, ok = ByID(want.ID)
		if !ok {
			t.Fatalf("ByID(%d) missed", want.ID)
		}
		check(fmt.Sprintf("ByID(%d)", want.ID), got, want)
	}
	for _, want := range Hostile() {
		got, ok := ByName(want.Name)
		if !ok {
			t.Fatalf("ByName(%q) missed a hostile program", want.Name)
		}
		check("ByName("+want.Name+")", got, want)
		if _, ok := ByID(want.ID); ok {
			t.Errorf("ByID(%d) resolved a hostile program; they are addressable by name only", want.ID)
		}
	}
	for _, name := range []string{"", "no-such-benchmark", "synth-19", "Coarse-disjoint-2x1", "hostile"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved an unknown name", name)
		}
	}
	for _, id := range []int{0, -1, Count + 1, HostileIDBase} {
		if _, ok := ByID(id); ok {
			t.Errorf("ByID(%d) resolved an out-of-range ID", id)
		}
	}
	fams := Families()
	if !sort.StringsAreSorted(fams) {
		t.Errorf("Families() = %v, not sorted", fams)
	}
	seen := map[string]bool{}
	for _, b := range all {
		seen[b.Family] = true
	}
	if len(fams) != len(seen) {
		t.Errorf("Families() = %v, want the %d distinct families of All()", fams, len(seen))
	}
}

// TestByNameBuildsOneProgram is the allocation gate on lookups: ByName
// and ByID may allocate about what building the one requested program
// allocates, never a rebuild of the whole corpus. The factor of two
// absorbs run-to-run variation in the builders' map allocations (it
// shows under the race detector); a corpus rebuild costs ~70x.
func TestByNameBuildsOneProgram(t *testing.T) {
	corpusAllocs := testing.AllocsPerRun(5, func() { All() })
	for i, e := range corpus {
		build := testing.AllocsPerRun(5, func() { e.build() })
		byName := testing.AllocsPerRun(5, func() { ByName(e.name) })
		byID := testing.AllocsPerRun(5, func() { ByID(i + 1) })
		if byName > 2*build || byID > 2*build {
			t.Errorf("%s: ByName %.0f / ByID %.0f allocs, building the program alone takes %.0f",
				e.name, byName, byID, build)
		}
		if byName*10 > corpusAllocs {
			t.Errorf("%s: ByName %.0f allocs is over a tenth of All()'s %.0f", e.name, byName, corpusAllocs)
		}
	}
}
