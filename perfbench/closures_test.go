package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/sct"
)

// explored summarises every generated program by its shape and the
// distinct terminal states an exhaustive search reaches.
func explored(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	for _, cp := range genClosures(seed) {
		p := cp.Prog
		rep, err := sct.Run(context.Background(), p, "dpor+sleep", sct.WithRecordStates(), sct.WithScheduleLimit(paperLimit))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		out = append(out, fmt.Sprintf("%s t%d v%d m%d c%d schedules=%d states=%s",
			p.Name(), p.NumThreads(), p.NumVars(), p.NumMutexes(), p.NumChannels(), rep.Schedules,
			strings.Join(rep.States, ";")))
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := explored(t, 7), explored(t, 7)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed generated different programs")
	}
	if c := explored(t, 8); slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 generated the same programs")
	}
	if len(a) != closureVariants*len(closureShapes) {
		t.Fatalf("generated %d programs, want %d", len(a), closureVariants*len(closureShapes))
	}
}

// The seed varies values and roles, not the size of a program's
// schedule space: DPOR's schedule count may move a little with the
// thread numbering of an isomorphic program, never more.
func TestGeneratorKeepsShapeCost(t *testing.T) {
	size := func(seed int64) []int {
		var out []int
		for _, cp := range genClosures(seed) {
			rep, err := sct.Run(context.Background(), cp.Prog, "dpor+sleep", sct.WithScheduleLimit(paperLimit))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rep.Schedules)
		}
		return out
	}
	a, b := size(1), size(2)
	for i := range a {
		if d := a[i] - b[i]; d*10 > a[i] || -d*10 > a[i] {
			t.Errorf("program %d: %d schedules under seed 1, %d under seed 2", i, a[i], b[i])
		}
	}
}

// Every program's answer holds: the buggy shapes report their bug, the
// lock shape none, and the channel shape the documented false deadlock
// and nothing else.
func TestGeneratorAnswers(t *testing.T) {
	for _, cp := range genClosures(3) {
		rep, err := sct.Run(context.Background(), cp.Prog, "dpor+sleep", sct.WithScheduleLimit(paperLimit))
		if err != nil {
			t.Fatal(err)
		}
		class, reason := checkSearch(rep.Result, cp.Want, true)
		want := verdictOK
		if cp.Shape == "chan" {
			want = verdictDefect
		}
		if class != want {
			t.Errorf("%s: class %d (%s), want %d", cp.Prog.Name(), class, reason, want)
		}
	}
}
