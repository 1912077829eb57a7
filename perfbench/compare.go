package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// row is one workload x metric line of an A/B comparison.
type row struct {
	Workload, Metric, Unit string
	Base, Change           [3]float64 // first quartile, median, third quartile
	Pairs                  int
	WinShare               float64 // share of pairs the change wins; ties count for neither side
	Verdict                string
}

// Verdicts of a comparison row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minWinShare is the share of pairs one side must win for a claim.
const minWinShare = 0.9

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "result directory (or comma-separated result files) of the parent")
	change := fs.String("change", "", "result directory (or comma-separated result files) of the change")
	benchFile := fs.String("bench", "BENCHMARK.json", "benchmark description giving each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *change == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench compare: need --base and --change")
		return 2
	}
	a, err := loadResults(*base)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	b, err := loadResults(*change)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	bounds, err := loadBounds(*benchFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	rows, err := compare(a, b, bounds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	printRows(stdout, rows)
	return 0
}

// loadResults reads the untraced result files of one side: every
// *.json file of a directory, or a comma-separated list of files.
func loadResults(spec string) ([]resultFile, error) {
	var paths []string
	if st, err := os.Stat(spec); err == nil && st.IsDir() {
		m, err := filepath.Glob(filepath.Join(spec, "*.json"))
		if err != nil {
			return nil, err
		}
		paths = m
	} else {
		paths = strings.Split(spec, ",")
	}
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", spec)
	}
	return out, nil
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var desc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &desc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range desc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// compare pairs the two sides' runs per workload and judges every
// metric both sides report. It refuses results measured on different
// machines or toolchains, or over different grids.
func compare(a, b []resultFile, bounds map[string]float64) ([]row, error) {
	ref := a[0]
	for _, side := range [][]resultFile{a, b} {
		for _, r := range side {
			if why := sameMachine(ref.Env, r.Env); why != "" {
				return nil, fmt.Errorf("refusing to pair %s seed %d with %s seed %d: %s",
					ref.Workload, ref.Seed, r.Workload, r.Seed, why)
			}
		}
	}
	byWorkload := func(rs []resultFile) map[string][]resultFile {
		m := map[string][]resultFile{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var rows []row
	for _, w := range slices.Sorted(maps.Keys(wa)) {
		xs, ys := wa[w], wb[w]
		if len(ys) == 0 {
			continue
		}
		for _, r := range append(append([]resultFile(nil), xs...), ys...) {
			if r.Limits != xs[0].Limits || r.Seconds != xs[0].Seconds {
				return nil, fmt.Errorf("workload %s: runs differ in grid or run length (%q, %ds vs %q, %ds)",
					w, xs[0].Limits, xs[0].Seconds, r.Limits, r.Seconds)
			}
		}
		xs, ys = pairRuns(xs, ys)
		names := map[string]bool{}
		for _, r := range append(append([]resultFile(nil), xs...), ys...) {
			for n := range r.Metrics {
				names[n] = true
			}
		}
		for _, n := range slices.Sorted(maps.Keys(names)) {
			if r, ok := judge(w, n, xs, ys, bounds[n]); ok {
				rows = append(rows, r)
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no workload measured on both sides")
	}
	return rows, nil
}

// pairRuns orders both sides so that run i of one is paired with run i
// of the other: by seed when both sides ran the same seeds, else by
// start time. Unpaired runs are dropped.
func pairRuns(xs, ys []resultFile) ([]resultFile, []resultFile) {
	seeds := func(rs []resultFile) []int64 {
		s := make([]int64, len(rs))
		for i, r := range rs {
			s[i] = r.Seed
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	sx, sy := seeds(xs), seeds(ys)
	sameSeeds := len(sx) == len(sy)
	for i := 0; sameSeeds && i < len(sx); i++ {
		sameSeeds = sx[i] == sy[i] && (i == 0 || sx[i] != sx[i-1])
	}
	order := func(rs []resultFile) []resultFile {
		rs = append([]resultFile(nil), rs...)
		sort.SliceStable(rs, func(i, j int) bool {
			if sameSeeds {
				return rs[i].Seed < rs[j].Seed
			}
			return rs[i].Started.Before(rs[j].Started)
		})
		return rs
	}
	xs, ys = order(xs), order(ys)
	n := min(len(xs), len(ys))
	return xs[:n], ys[:n]
}

// judge applies the rule of a paired A/B claim to one metric:
//   - improved: the change wins at least 90% of the pairs and the
//     medians differ, in the better direction, by more than the
//     parent's interquartile range; or every change run reads better
//     than every parent run;
//   - regressed: the same with the sides swapped, or the change's
//     median is worse than the parent's by more than the metric's
//     bound (a share of the parent's median) while the parent's own
//     spread is within that bound;
//   - unresolved: the parent's spread is wider than the bound;
//   - unchanged: otherwise.
func judge(workload, name string, xs, ys []resultFile, bound float64) (row, bool) {
	var a, b []float64
	r := row{Workload: workload, Metric: name}
	higher := false
	for i := range xs {
		ma, okA := xs[i].Metrics[name]
		mb, okB := ys[i].Metrics[name]
		if !okA || !okB {
			continue
		}
		a, b = append(a, ma.Value), append(b, mb.Value)
		r.Unit, higher = ma.Unit, ma.Better == "higher"
	}
	if len(a) == 0 {
		return r, false
	}
	r.Pairs = len(a)
	r.Base[0], r.Base[1], r.Base[2] = quartiles(a)
	r.Change[0], r.Change[1], r.Change[2] = quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if higher {
			return x > y
		}
		return x < y
	}
	wins, losses := 0, 0
	for i := range a {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	r.WinShare = float64(wins) / float64(r.Pairs)
	lossShare := float64(losses) / float64(r.Pairs)
	gain := r.Change[1] - r.Base[1] // positive = change better
	if !higher {
		gain = -gain
	}
	iqr := r.Base[2] - r.Base[0]
	allowed := bound * math.Abs(r.Base[1])
	switch {
	case r.Pairs < 2:
		r.Verdict = unresolved
	case r.WinShare >= minWinShare && gain > iqr, separated(b, a, better):
		r.Verdict = improved
	case lossShare >= minWinShare && -gain > iqr, separated(a, b, better):
		r.Verdict = regressed
	case -gain > allowed && iqr <= allowed:
		r.Verdict = regressed
	case iqr > allowed:
		r.Verdict = unresolved
	default:
		r.Verdict = unchanged
	}
	return r, true
}

// separated reports whether every x reads better than every y.
func separated(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-13s %-28s %-6s %-36s %-36s %5s %5s  %s\n",
		"workload", "metric", "unit", "parent q1 / median / q3", "change q1 / median / q3", "pairs", "wins", "verdict")
	q := func(x [3]float64) string { return fmt.Sprintf("%.5g / %.5g / %.5g", x[0], x[1], x[2]) }
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-28s %-6s %-36s %-36s %5d %4.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, q(r.Base), q(r.Change), r.Pairs, 100*r.WinShare, r.Verdict)
	}
}
