package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/sct"
)

// The known-answer file covers every corpus program, and nothing else.
func TestKnownAnswersCoverCorpus(t *testing.T) {
	known, err := parseKnown(knownTSV)
	if err != nil {
		t.Fatal(err)
	}
	all := bench.All()
	if len(all) != bench.Count || len(known) != len(all) {
		t.Fatalf("known.tsv answers %d programs, corpus has %d (bench.Count %d)", len(known), len(all), bench.Count)
	}
	bugs := 0
	for _, b := range all {
		a, ok := known[b.Name]
		if !ok {
			t.Errorf("no known answer for %s", b.Name)
		}
		if a.Bug {
			bugs++
		}
	}
	if bugs != 44 {
		t.Errorf("known.tsv lists %d buggy programs, want 44", bugs)
	}
	if _, err := corpus(known); err != nil {
		t.Error(err)
	}
}

func TestParseKnownRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"a\tbug\n",                   // too few fields
		"a\tmaybe\t-\n",              // bad verdict
		"a\tbug\t-\n",                // bug without kinds
		"a\tok\tdeadlock\n",          // ok with kinds
		"a\tok\t-\na\tok\t-\n",       // duplicate
		"a\tbug\tdata race\textra\n", // too many fields
	} {
		if _, err := parseKnown(text); err == nil {
			t.Errorf("parseKnown(%q) accepted", text)
		}
	}
}

func TestCheckSearch(t *testing.T) {
	racy := answer{Bug: true, Kinds: []string{"data race"}}
	clean := answer{}
	probe := answer{Defect: probeDefect, DefectKind: "deadlock"}
	ok := sct.Result{Schedules: 4, Terminals: 4, DistinctHBRs: 3, DistinctLazyHBRs: 2, DistinctStates: 2}
	found := ok
	found.Races, found.ViolationKind, found.FirstBugSchedule = 1, "data race", 2
	deadlock := ok
	deadlock.Deadlocks, deadlock.ViolationKind, deadlock.FirstBugSchedule = 1, "deadlock", 1
	limited := ok
	limited.HitLimit = true
	broken := ok
	broken.DistinctStates = 3 // more states than lazy HBRs
	partition := ok
	partition.Terminals = 3
	cases := []struct {
		name     string
		r        sct.Result
		want     answer
		complete bool
		class    int
	}{
		{"bug found", found, racy, true, verdictOK},
		{"clean", ok, clean, true, verdictOK},
		{"false positive", found, clean, true, verdictFailed},
		{"wrong kind", deadlock, racy, true, verdictFailed},
		{"missed by an exhausted complete search", ok, racy, true, verdictFailed},
		{"missed within budget", limited, racy, true, verdictMissed},
		{"missed by a bounded search", ok, racy, false, verdictMissed},
		{"count invariant", broken, clean, true, verdictFailed},
		{"outcome partition", partition, clean, true, verdictFailed},
		{"documented defect", deadlock, probe, true, verdictDefect},
		{"defect fixed", ok, probe, true, verdictOK},
		{"other failure on the probe", found, probe, true, verdictFailed},
	}
	for _, c := range cases {
		class, reason := checkSearch(c.r, c.want, c.complete)
		if class != c.class {
			t.Errorf("%s: class %d (%s), want %d", c.name, class, reason, c.class)
		}
	}
}

func TestStateAgreement(t *testing.T) {
	a := stateAgreement{}
	if why := a.check("p", "dpor", 3); why != "" {
		t.Fatal(why)
	}
	if why := a.check("p", "lazy-hbr-caching", 3); why != "" {
		t.Fatal(why)
	}
	if why := a.check("p", "hbr-caching", 4); !strings.Contains(why, "disagree") {
		t.Fatalf("disagreement not reported: %q", why)
	}
	if !completeEngine("pdpor:2") || completeEngine("pb:2") || completeEngine("random:7") {
		t.Error("completeEngine misclassifies a spec")
	}
}
