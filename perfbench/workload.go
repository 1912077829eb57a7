package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/sct"
)

// The paper's limits (Figures 2 and 3).
const (
	paperLimit    = 100000
	paperMaxSteps = 2000
)

// Limits of the bug-hunt and sct-closures workloads.
const (
	huntSeeds     = 4   // seeds per sampler spec in bug-hunt
	huntCleanPick = 30  // bug-free corpus programs sampled per bug-hunt run
	huntCleanB    = 100 // schedule budget of a sampler on a bug-free program
	closureHuntB  = 10000
	// closureHunts is the number of random hunts per buggy closure
	// program, each under its own seed. A hunt's time to the first bug
	// depends on its seed, and these times sit around the middle of
	// the workload's repro times, so several per program keep
	// repro_ms_p50 from following the draw of a few seeds.
	closureHunts = 4
)

var samplerNames = []string{"random", "pct", "pos"}

func isSampler(spec string) bool {
	name, _, _ := strings.Cut(spec, ":")
	return slices.Contains(samplerNames, name)
}

// search is one (program, engine) exploration of a workload's grid.
type search struct {
	idx      int // position in the plan's grid
	Program  string
	Engine   string
	src      sct.Source
	want     answer
	limit    int
	maxSteps int
	firstBug bool
}

func (s search) key() string { return s.Program + "|" + s.Engine }

// plan is a workload's grid, built by setup and run pass after pass.
type plan struct {
	workload string
	searches []search
	// cells is the bug-hunt campaign grid (one cell per search, same
	// order); nil for the other workloads.
	cells []sct.Cell
	// programs are the distinct programs of the grid, for the layer
	// probes of a traced run.
	programs []sct.Source
	// limits is a human-readable statement of the grid and bounds.
	limits string
}

var workloads = []string{"paper-figs", "bug-hunt", "sct-closures"}

// setup builds a workload's plan from the seed: corpus construction
// (every workload builds the corpus and checks the known answers cover
// it), closure-program generation, engine spec parsing and grid
// building.
func setup(workload string, seed int64, known map[string]answer) (*plan, error) {
	all, err := corpus(known)
	if err != nil {
		return nil, err
	}
	var p *plan
	switch workload {
	case "paper-figs":
		p, err = setupPaperFigs(seed, all, known)
	case "bug-hunt":
		p, err = setupBugHunt(seed, all, known)
	case "sct-closures":
		p, err = setupClosures(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	for i := range p.searches {
		p.searches[i].idx = i
	}
	return p, nil
}

func corpus(known map[string]answer) ([]bench.Benchmark, error) {
	all := bench.All()
	if len(all) != len(known) {
		return nil, fmt.Errorf("known.tsv answers %d programs, the corpus has %d", len(known), len(all))
	}
	for _, b := range all {
		if _, ok := known[b.Name]; !ok {
			return nil, fmt.Errorf("corpus program %q has no known answer", b.Name)
		}
	}
	return all, nil
}

func setupPaperFigs(seed int64, all []bench.Benchmark, known map[string]answer) (*plan, error) {
	specs, err := sct.ParseSpecs("dpor,hbr-caching,lazy-hbr-caching")
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "paper-figs",
		limits: fmt.Sprintf("%d corpus programs x %v, schedule limit %d, max steps %d, sequential",
			len(all), specs, paperLimit, paperMaxSteps)}
	for _, b := range all {
		p.programs = append(p.programs, b.Program)
		for _, spec := range specs {
			p.searches = append(p.searches, search{Program: b.Name, Engine: spec, src: b.Program,
				want: known[b.Name], limit: paperLimit, maxSteps: paperMaxSteps})
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 1))
	rng.Shuffle(len(p.searches), func(i, j int) { p.searches[i], p.searches[j] = p.searches[j], p.searches[i] })
	return p, nil
}

// huntSpecs is the default engine grid minus parallel specs wider than
// the machine, split into deterministic specs and samplers; every
// sampler is expanded to huntSeeds seeded specs (a sampler's seed is
// its last spec argument).
func huntSpecs(rng *rand.Rand) (det, samp []string, err error) {
	for _, spec := range sct.DefaultGrid() {
		name, arg, _ := strings.Cut(spec, ":")
		if name == "pdpor" {
			var w int
			if _, err := fmt.Sscanf(arg, "%d", &w); err != nil {
				return nil, nil, fmt.Errorf("grid spec %q: %w", spec, err)
			}
			if w > runtime.NumCPU() {
				continue
			}
		}
		if !isSampler(spec) {
			det = append(det, spec)
			continue
		}
		for i := 0; i < huntSeeds; i++ {
			samp = append(samp, fmt.Sprintf("%s:%d", spec, 1+rng.IntN(1<<30)))
		}
	}
	return det, samp, nil
}

func setupBugHunt(seed int64, all []bench.Benchmark, known map[string]answer) (*plan, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 2))
	det, samp, err := huntSpecs(rng)
	if err != nil {
		return nil, err
	}
	var buggy, clean []string
	byName := map[string]bench.Benchmark{}
	for _, b := range all {
		byName[b.Name] = b
		if known[b.Name].Bug {
			buggy = append(buggy, b.Name)
		} else {
			clean = append(clean, b.Name)
		}
	}
	rng.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
	clean = clean[:min(huntCleanPick, len(clean))]
	slices.Sort(clean)

	bugCells, err := sct.Grid(buggy, append(append([]string(nil), det...), samp...),
		sct.WithBounds(paperLimit, paperMaxSteps), sct.StopAtFirstBug())
	if err != nil {
		return nil, err
	}
	cleanCells, err := sct.Grid(clean, samp, sct.WithBounds(huntCleanB, paperMaxSteps), sct.StopAtFirstBug())
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "bug-hunt",
		limits: fmt.Sprintf("campaign, %d workers: %d buggy programs x %d specs (%v + %d seeds of %v), limit %d, first bug; "+
			"%d bug-free programs x %d sampler specs, budget %d; max steps %d",
			runtime.NumCPU(), len(buggy), len(det)+len(samp), det, huntSeeds, samplerNames, paperLimit,
			len(clean), len(samp), huntCleanB, paperMaxSteps)}
	seen := map[string]bool{}
	for _, c := range append(bugCells, cleanCells...) {
		b := byName[c.Bench]
		if !seen[c.Bench] {
			seen[c.Bench] = true
			p.programs = append(p.programs, b.Program)
		}
		p.searches = append(p.searches, search{Program: c.Bench, Engine: string(c.Engine), src: b.Program,
			want: known[c.Bench], limit: c.ScheduleLimit, maxSteps: c.MaxSteps, firstBug: true})
		c.Engine = sct.EngineSpec(timedPrefix + string(c.Engine))
		p.cells = append(p.cells, c)
	}
	return p, nil
}

func setupClosures(seed int64) (*plan, error) {
	progs := genClosures(seed)
	specs, err := sct.ParseSpecs("dpor+sleep,lazy-hbr-caching")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 3))
	p := &plan{workload: "sct-closures",
		limits: fmt.Sprintf("%d generated closure programs x %v until exhausted (limit %d), plus %d random hunts "+
			"(budget %d, first bug) per buggy program; max steps %d, sequential",
			len(progs), specs, paperLimit, closureHunts, closureHuntB, paperMaxSteps)}
	for _, cp := range progs {
		p.programs = append(p.programs, cp.Prog)
		for _, spec := range specs {
			p.searches = append(p.searches, search{Program: cp.Prog.Name(), Engine: spec, src: cp.Prog,
				want: cp.Want, limit: paperLimit, maxSteps: paperMaxSteps})
		}
		for h := 0; cp.Want.Bug && h < closureHunts; h++ {
			p.searches = append(p.searches, search{Program: cp.Prog.Name(), Engine: fmt.Sprintf("random:%d", 1+rng.IntN(1<<30)),
				src: cp.Prog, want: cp.Want, limit: closureHuntB, maxSteps: paperMaxSteps, firstBug: true})
		}
	}
	return p, nil
}

// timedPrefix wraps a campaign cell's engine spec in timedEngine, so
// each cell's exploration is timed to the nanosecond.
const timedPrefix = "bench-timed:"

// cellTimes records, per campaign cell, when its exploration started
// and how long it took; a traced run also hands every cell a Counters.
// The registry builds engines from a spec string alone, so the wrapper
// reports through this package-level table.
type cellTimes struct {
	mu       sync.Mutex
	start    map[string]time.Time
	dur      map[string]time.Duration
	counters map[string]*sct.Counters
	traced   bool
}

var cells = &cellTimes{}

func (c *cellTimes) reset(traced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start = map[string]time.Time{}
	c.dur = map[string]time.Duration{}
	c.counters = map[string]*sct.Counters{}
	c.traced = traced
}

type timedEngine struct {
	inner sct.Engine
	spec  string
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) Explore(src sct.Source, opt sct.Options) sct.Result {
	key := src.Name() + "|" + e.spec
	cells.mu.Lock()
	traced := cells.traced
	cells.mu.Unlock()
	var ctr *sct.Counters
	if traced {
		ctr = explore.NewCounters()
		opt.Counters = ctr
	}
	start := time.Now()
	res := e.inner.Explore(src, opt)
	d := time.Since(start)
	cells.mu.Lock()
	cells.start[key], cells.dur[key] = start, d
	if ctr != nil {
		cells.counters[key] = ctr
	}
	cells.mu.Unlock()
	return res
}

func init() {
	sct.Register(sct.EngineInfo{
		Name:    strings.TrimSuffix(timedPrefix, ":"),
		Usage:   timedPrefix + "SPEC",
		Summary: "benchmark wrapper timing one cell's exploration of SPEC",
		Build: func(argv []string) (sct.Engine, error) {
			spec := strings.Join(argv, ":")
			eng, err := sct.NewEngine(spec)
			if err != nil {
				return nil, err
			}
			return &timedEngine{inner: eng, spec: spec}, nil
		},
	})
}

// runPass explores the whole grid once, recording into rec.
func runPass(ctx context.Context, p *plan, rec *recorder, st *setupSampler) error {
	if p.cells != nil {
		// A campaign runs its searches concurrently, so set-ups are
		// timed between passes only.
		if err := st.tick(); err != nil {
			return err
		}
		return runCampaignPass(ctx, p, rec)
	}
	for _, s := range p.searches {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := st.tick(); err != nil {
			return err
		}
		if p.workload == "sct-closures" {
			runFacadeSearch(ctx, s, rec)
			continue
		}
		rec.settle()
		runEngineSearch(s, rec)
	}
	return nil
}

// runEngineSearch is one paper-figs search: Engine.Explore, as the
// figures compute it.
func runEngineSearch(s search, rec *recorder) {
	eng, err := sct.NewEngine(s.Engine)
	if err != nil {
		rec.fail(s, err.Error())
		return
	}
	opt := sct.Options{ScheduleLimit: s.limit, MaxSteps: s.maxSteps, StopAtFirstBug: s.firstBug}
	tr := rec.beginSearch(&opt)
	start := time.Now()
	res := eng.Explore(s.src, opt)
	d := time.Since(start)
	rec.endSearch(tr, s, res, d, "")
	rec.outcome(s, res, d, nil)
}

// runFacadeSearch is one sct-closures search through sct.Run.
func runFacadeSearch(ctx context.Context, s search, rec *recorder) {
	opts := []sct.Option{sct.WithBounds(s.limit, s.maxSteps)}
	if s.firstBug {
		opts = append(opts, sct.StopAtFirstBug())
	}
	var last sct.Progress
	tr := rec.beginSearch(nil)
	if tr != nil {
		opts = append(opts, sct.WithObserver(sct.Observer{EverySchedules: 1 << 30, Every: time.Hour,
			OnProgress: func(p sct.Progress) { last = p }}))
	}
	start := time.Now()
	rep, err := sct.Run(ctx, s.src, s.Engine, opts...)
	d := time.Since(start)
	if err != nil {
		rec.fail(s, err.Error())
		return
	}
	if tr != nil {
		tr.progress = &last
	}
	rec.endSearch(tr, s, rep.Result, d, last.Backend)
	rec.outcome(s, rep.Result, d, rep)
}

// runCampaignPass runs the bug-hunt grid as one campaign.
func runCampaignPass(ctx context.Context, p *plan, rec *recorder) error {
	cells.reset(rec.traced)
	camp, err := sct.NewCampaign(p.cells, sct.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return err
	}
	ms := rec.beginCampaign()
	campStart := time.Now()
	span := rec.addSpan(0, "campaign", search{}, campStart, 0)
	for r := range camp.Results(ctx) {
		s := p.searches[r.Index]
		if r.Err != "" || r.Cancelled {
			rec.fail(s, fmt.Sprintf("campaign cell: err=%q cancelled=%v", r.Err, r.Cancelled))
			continue
		}
		cells.mu.Lock()
		d, ok := cells.dur[s.key()]
		st := cells.start[s.key()]
		ctr := cells.counters[s.key()]
		cells.mu.Unlock()
		if !ok {
			rec.fail(s, "campaign cell ran without the timing wrapper")
			continue
		}
		rec.campaignCell(span, s, r.Result, st, st.Sub(campStart), d, ctr)
		rec.outcome(s, r.Result, d, nil)
	}
	if err := camp.Err(); err != nil {
		return err
	}
	rec.endCampaign(span, ms, time.Since(campStart), runtime.NumCPU())
	rec.runHeld()
	return nil
}
