package main

import (
	_ "embed"
	"fmt"
	"slices"
	"strings"

	"repro/sct"
)

// knownTSV is the expected verdict of every corpus program; see the
// header of known.tsv for its format.
//
//go:embed known.tsv
var knownTSV string

// answer is a program's known verdict: whether some schedule violates
// safety, and every violation class some schedule exhibits.
type answer struct {
	Bug   bool
	Kinds []string
	// Defect names a documented defect of the tester that makes every
	// engine report DefectKind on this program although Bug is false
	// (see the benchmark's README, "Known failures").
	Defect     string
	DefectKind string
}

func parseKnown(text string) (map[string]answer, error) {
	out := map[string]answer{}
	for i, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("known.tsv:%d: want 3 tab-separated fields, got %d", i+1, len(f))
		}
		var a answer
		switch f[1] {
		case "bug":
			a.Bug = true
		case "ok":
		default:
			return nil, fmt.Errorf("known.tsv:%d: verdict %q (want bug or ok)", i+1, f[1])
		}
		if f[2] != "-" {
			a.Kinds = strings.Split(f[2], ",")
		}
		if a.Bug != (len(a.Kinds) > 0) {
			return nil, fmt.Errorf("known.tsv:%d: verdict %s disagrees with kinds %q", i+1, f[1], f[2])
		}
		if _, dup := out[f[0]]; dup {
			return nil, fmt.Errorf("known.tsv:%d: duplicate program %q", i+1, f[0])
		}
		out[f[0]] = a
	}
	return out, nil
}

// reportedKinds lists the violation classes a result's counters saw.
func reportedKinds(r sct.Result) []string {
	var k []string
	for _, c := range []struct {
		n    int
		kind string
	}{
		{r.AssertFailures, "assertion failure"},
		{r.Races, "data race"},
		{r.Deadlocks, "deadlock"},
		{r.LockErrors, "lock misuse"},
		{r.Panics, "panic"},
	} {
		if c.n > 0 {
			k = append(k, c.kind)
		}
	}
	return k
}

// Outcome classes of one checked search.
const (
	verdictOK     = iota // agrees with the known answer
	verdictMissed        // a known bug was not found within the budget
	verdictDefect        // the documented known defect, exactly as documented
	verdictFailed        // anything else: wrong verdict, broken invariant, error
)

// checkSearch classifies one search against its program's known
// answer. complete says the engine covers every terminal state of a
// space it exhausts (so an exhausted search that misses a known bug is
// wrong, not unlucky). reason explains every class but verdictOK.
func checkSearch(r sct.Result, want answer, complete bool) (class int, reason string) {
	if err := countInvariant(r); err != "" {
		return verdictFailed, err
	}
	if r.Interrupted {
		return verdictFailed, "interrupted"
	}
	if r.Divergences > 0 {
		return verdictFailed, fmt.Sprintf("%d diverged schedules", r.Divergences)
	}
	kinds := reportedKinds(r)
	found := r.ViolationKind != ""
	if found != (len(kinds) > 0) {
		return verdictFailed, fmt.Sprintf("violation kind %q disagrees with counters %v", r.ViolationKind, kinds)
	}
	if want.Defect != "" && !want.Bug && found {
		if r.ViolationKind == want.DefectKind && len(kinds) == 1 {
			return verdictDefect, want.Defect
		}
		return verdictFailed, fmt.Sprintf("reported %v, neither the known answer nor the documented defect", kinds)
	}
	for _, k := range kinds {
		if !slices.Contains(want.Kinds, k) {
			return verdictFailed, fmt.Sprintf("reported %q, which no schedule of this program exhibits", k)
		}
	}
	if want.Bug && !found {
		if r.HitLimit || !complete {
			return verdictMissed, "bug not found within the schedule budget"
		}
		return verdictFailed, "exhausted the schedule space without finding the known bug"
	}
	if found && r.FirstBugSchedule < 1 {
		return verdictFailed, "violation without a schedules-to-first-bug index"
	}
	return verdictOK, ""
}

// countInvariant checks the paper's Section 3 chain
// #states <= #lazy HBRs <= #HBRs <= #schedules and that the outcome
// counters partition the schedules.
func countInvariant(r sct.Result) string {
	if !(r.DistinctStates <= r.DistinctLazyHBRs && r.DistinctLazyHBRs <= r.DistinctHBRs && r.DistinctHBRs <= r.Schedules) {
		return fmt.Sprintf("count invariant broken: states=%d lazy=%d hbrs=%d schedules=%d",
			r.DistinctStates, r.DistinctLazyHBRs, r.DistinctHBRs, r.Schedules)
	}
	if sum := r.Terminals + r.Pruned + r.Truncated + r.SleepBlocked + r.Divergences; sum != r.Schedules {
		return fmt.Sprintf("outcome counters sum to %d, schedules=%d", sum, r.Schedules)
	}
	if r.Schedules < 1 {
		return "no schedule executed"
	}
	return ""
}

// completeEngine reports whether an engine spec names a search that
// reaches every terminal state when it exhausts its space: the bounded
// searches and the samplers do not.
func completeEngine(spec string) bool {
	name, _, _ := strings.Cut(spec, ":")
	switch name {
	case "dfs", "dpor", "dpor+sleep", "hbr-caching", "lazy-hbr-caching", "pdpor":
		return true
	}
	return false
}

// exhausted reports whether a complete engine covered its whole
// schedule space, so its distinct-state count must agree with every
// other exhausted search of the same program.
func exhausted(r sct.Result, spec string, stopAtFirstBug bool) bool {
	return completeEngine(spec) && !r.HitLimit && !r.Interrupted && r.Truncated == 0 &&
		!(stopAtFirstBug && r.ViolationKind != "")
}

// stateAgreement remembers the distinct-state count of the first
// exhausted search of each program and reports any later exhausted
// search that disagrees.
type stateAgreement map[string]struct {
	states int
	engine string
}

func (a stateAgreement) check(program, engine string, states int) string {
	prev, ok := a[program]
	if !ok {
		a[program] = struct {
			states int
			engine string
		}{states, engine}
		return ""
	}
	if prev.states != states {
		return fmt.Sprintf("distinct states disagree on an exhausted search: %s=%d, %s=%d", prev.engine, prev.states, engine, states)
	}
	return ""
}
