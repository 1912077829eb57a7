// Command perfbench is the schedule explorer's benchmark: it runs one
// named workload for a fixed time, checks every verdict against a known
// answer, and prints its metrics as one JSON line. See README.md.
//
//	perfbench --workload paper-figs --seed 1 --seconds 10 --trace 0
//	perfbench compare --base DIR --change DIR
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// A run sets up setupMinReps times before its timed section, then
// repeats the set-up in short bursts spread over the section, taking
// setupShare of its time; setup_s is the median of all repetitions. One
// set-up takes a millisecond or two, and the reference machine's speed
// swings from one second to the next, so set-ups timed in one window
// before the run read as unsteadily as that window.
const (
	setupMinReps = 15
	setupShare   = 0.02
	setupEvery   = 250 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better is "lower" or "higher"; kept in result files for compare
	// mode, left out of the printed result line.
	Better string `json:"better,omitempty"`
}

// endToEnd lists the untraced metrics the result line carries, in
// order; BENCHMARK.json names the same set.
var endToEnd = []string{"setup_s", "searches_per_s", "search_ms_p50", "search_ms_p90",
	"repro_ms_p50", "repro_ms_p90", "peak_rss_mb", "bugs_found_share", "schedules_to_bug_total"}

// resultFile is what every run writes under --out, and what compare
// mode reads.
type resultFile struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Limits    string            `json:"limits"`
	Env       Env               `json:"env"`
	Passes    int               `json:"passes"`
	Searches  int               `json:"searches_per_pass"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Defects   int               `json:"known_defect_searches"`
	Metrics   map[string]metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	Started   time.Time         `json:"started"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	t0 := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the timed section runs (whole grid passes, at least one)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead instead of end-to-end metrics")
	out := fs.String("out", ".bench_results", `directory for the run's result file (and spans when traced); "" writes none`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload, --seconds >= 1 and --trace 0|1")
		fs.Usage()
		return 2
	}
	res, spans, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, t0)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Seconds = *seconds
	res.Env = stampEnv(".")
	printHuman(stdout, res)
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	if *out != "" {
		if err := writeResult(*out, res, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	names := endToEnd
	if res.Trace {
		names = perLayer
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		line.Metrics[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// run performs one benchmark run.
func run(workload string, seed int64, seconds time.Duration, traced bool, t0 time.Time) (*resultFile, []span, error) {
	if workload == "paper-figs" {
		// The paper's computation runs one search at a time. On a single
		// P its searches never wait for the runtime to coordinate with a
		// second, idle one (stop-the-world phases, background collector
		// workers) whose vCPU a shared host schedules on its own; on the
		// reference machine that wait was a third of a short search's
		// time.
		runtime.GOMAXPROCS(1)
	}
	var p *plan
	st := &setupSampler{do: func() error {
		known, err := parseKnown(knownTSV)
		if err != nil {
			return err
		}
		p, err = setup(workload, seed, known)
		return err
	}}
	if err := st.burst(setupMinReps); err != nil {
		return nil, nil, err
	}
	res := &resultFile{Workload: workload, Seed: seed, Trace: traced, Limits: p.limits,
		Searches: len(p.searches), Metrics: map[string]metric{}, Started: t0.UTC()}
	ctx := context.Background()

	if !traced {
		g0 := runtime.NumGoroutine()
		rec, err := timedSection(ctx, p, seconds, false, t0, st)
		if err != nil {
			return nil, nil, err
		}
		fillEndToEnd(res, rec, median(st.times))
		// Goroutines of the program under test still alive after every
		// search returned (see README, "Known failures").
		runtime.GC()
		res.Metrics["goroutines_leaked"] = metric{Value: float64(runtime.NumGoroutine() - g0), Unit: "count", Better: "lower"}
		return res, nil, nil
	}
	// A traced run measures the grid untraced, traced, then untraced
	// again, so the tracing overhead (traced against untraced
	// searches_per_s) is not confounded with warm-up or a drift in
	// machine speed; then it probes the layers the engines call
	// internally.
	before, err := timedSection(ctx, p, seconds/4, false, t0, nil)
	if err != nil {
		return nil, nil, err
	}
	rec, err := timedSection(ctx, p, seconds/2, true, t0, nil)
	if err != nil {
		return nil, nil, err
	}
	after, err := timedSection(ctx, p, seconds/4, false, t0, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range []*recorder{before, rec, after} {
		fillRecorderOutcome(res, r)
	}
	fillPerLayer(res, rec, float64(before.completed+after.completed)/(before.timed+after.timed).Seconds())
	if err := probeLayers(p, seed, res.Metrics); err != nil {
		return nil, nil, err
	}
	return res, rec.spans, nil
}

// timedSection runs whole grid passes until the time is up. st, when
// not nil, interleaves set-up repetitions, which stay out of the timed
// wall.
func timedSection(ctx context.Context, p *plan, d time.Duration, traced bool, t0 time.Time, st *setupSampler) (*recorder, error) {
	rec := newRecorder(traced, t0, len(p.searches))
	rec.settleHeap = p.workload == "paper-figs"
	start := time.Now()
	for pass := 0; ; pass++ {
		rec.pass = pass
		passStart, untimedBefore, setupBefore := time.Now(), rec.reproDur+rec.gcDur, st.spent()
		if err := runPass(ctx, p, rec, st); err != nil {
			return nil, err
		}
		wall := time.Since(passStart) - (st.spent() - setupBefore)
		if p.workload == "paper-figs" {
			// The paper's figures never reproduce; the counterexamples
			// this workload checks, and the heap collections before its
			// searches and reproductions, stay out of its timed section.
			wall -= rec.reproDur + rec.gcDur - untimedBefore
		}
		rec.timed += wall
		if pass == 0 {
			// Read after a fixed amount of work, so a faster run does
			// not read higher (sct-closures leaks goroutines per search).
			rec.peakRSS = peakRSSMB()
		}
		if time.Since(start) >= d {
			rec.pass = pass + 1
			break
		}
	}
	return rec, nil
}

// setupSampler times repetitions of a workload's set-up.
type setupSampler struct {
	do    func() error
	times []float64 // seconds per repetition
	total time.Duration
	last  time.Time // end of the last burst
}

// burst runs the set-up n times.
func (st *setupSampler) burst(n int) error {
	begin := time.Now()
	for range n {
		start := time.Now()
		if err := st.do(); err != nil {
			return err
		}
		st.times = append(st.times, time.Since(start).Seconds())
	}
	st.last = time.Now()
	st.total += st.last.Sub(begin)
	return nil
}

// tick runs a burst once setupEvery has passed since the last one,
// sized to take setupShare of the time between them. A nil sampler
// does nothing.
func (st *setupSampler) tick() error {
	if st == nil {
		return nil
	}
	since := time.Since(st.last)
	if since < setupEvery {
		return nil
	}
	per := time.Duration(median(st.times) * float64(time.Second))
	return st.burst(max(1, int(setupShare*float64(since)/float64(max(per, 1)))))
}

// spent is the time the sampler's bursts took; 0 for a nil sampler.
func (st *setupSampler) spent() time.Duration {
	if st == nil {
		return 0
	}
	return st.total
}

func fillRecorderOutcome(res *resultFile, rec *recorder) {
	res.Passes += rec.pass
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	res.Defects += rec.defects
	res.Failures = append(res.Failures, rec.failures...)
	res.Correct = res.Failed == 0
}

func fillEndToEnd(res *resultFile, rec *recorder, setupS float64) {
	fillRecorderOutcome(res, rec)
	set := func(name string, v float64, unit, better string) {
		res.Metrics[name] = metric{Value: v, Unit: unit, Better: better}
	}
	search, repro := perSearch(rec.searchNs, 1e6), perSearch(rec.reproNs, 1e6)
	set("setup_s", setupS, "s", "lower")
	set("searches_per_s", rec.rate(), "1/s", "higher")
	set("search_ms_p50", percentile(search, 50), "ms", "lower")
	set("search_ms_p90", percentile(search, 90), "ms", "lower")
	set("repro_ms_p50", percentile(repro, 50), "ms", "lower")
	set("repro_ms_p90", percentile(repro, 90), "ms", "lower")
	set("peak_rss_mb", rec.peakRSS, "MB", "lower")
	set("bugs_found_share", float64(rec.bugsFound)/float64(max(rec.buggy, 1)), "share", "higher")
	set("schedules_to_bug_total", float64(rec.schedulesToBug), "count", "lower")
	// Reported in the result file only (README.md, "End-to-end metrics").
	set("failed_share", float64(res.Failed+res.Defects)/float64(max(res.Attempted, 1)), "share", "lower")
	set("known_defect_share", float64(res.Defects)/float64(max(res.Attempted, 1)), "share", "lower")
	set("searches", float64(rec.completed), "count", "higher")
	set("repro_samples", float64(len(repro)), "count", "higher")
	if p, ok := tailPercentile(len(search)); ok {
		set("search_ms_"+pname(p), percentile(search, p), "ms", "lower")
	}
	if p, ok := tailPercentile(len(repro)); ok {
		set("repro_ms_"+pname(p), percentile(repro, p), "ms", "lower")
	}
}

func printHuman(w io.Writer, res *resultFile) {
	fmt.Fprintf(w, "workload %s seed %d: %s\n", res.Workload, res.Seed, res.Limits)
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, commit %s, source %s\n",
		res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Commit, res.Env.SourceDigest)
	fmt.Fprintf(w, "passes %d x %d searches; attempted %d, failed %d, known-defect %d\n",
		res.Passes, res.Searches, res.Attempted, res.Failed, res.Defects)
	if res.Defects > 0 {
		fmt.Fprintf(w, "known defect: %d searches report the documented false deadlock (%s)\n", res.Defects, probeDefect)
	}
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func writeResult(dir string, res *resultFile, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result dir: %w", err)
	}
	kind := "e2e"
	if res.Trace {
		kind = "trace"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%d", res.Workload, kind, res.Seed, res.Started.UnixNano()))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if len(spans) == 0 {
		return nil
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
