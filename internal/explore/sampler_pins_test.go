package explore

import (
	"hash/fnv"
	"testing"

	"repro/internal/bench"
	"repro/internal/event"
	"repro/internal/model"
)

// samplerPinSpecs are the sampler configurations the golden pins
// cover, keyed by their engine-spec spelling (random[:seed],
// pct:d[:seed], pos[:seed]; the default seed is 1).
var samplerPinSpecs = []struct {
	spec string
	eng  func() Engine
}{
	{"random", func() Engine { return NewRandomWalk(1) }},
	{"random:7", func() Engine { return NewRandomWalk(7) }},
	{"pct:3", func() Engine { return NewPCT(1, 3) }},
	{"pct:2:9", func() Engine { return NewPCT(9, 2) }},
	{"pos", func() Engine { return NewPOS(1) }},
	{"pos:9", func() Engine { return NewPOS(9) }},
}

// samplerPinPrograms are buggy corpus programs from every family with
// a bug, plus two goroutine-frontend programs (replay-backed walks).
var samplerPinPrograms = []string{
	"counter-racy-2x2", "account-racy-3", "dcl-3", "lastzero-3",
	"peterson-2", "philosophers-3", "coarse-tail-3x3", "synth-05",
	"chan-select-order-bug", "chan-lost-wakeup", "hostile-panic", "gh-racy-3",
}

func samplerPinProgram(t *testing.T, name string) model.Source {
	t.Helper()
	if name == "gh-racy-3" {
		return buildHarnessVariant("pins", 3, false, true)
	}
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	return b.Program
}

// samplerPin is what one sampler run must reproduce exactly.
type samplerPin struct {
	Schedules    int
	Events       int64
	DistinctHBRs int
	FirstBug     int
	// Witness is an FNV-1a hash of the first violating schedule's
	// thread choices.
	Witness uint32
}

func witnessHash(choices []event.ThreadID) uint32 {
	h := fnv.New32a()
	for _, c := range choices {
		h.Write([]byte{byte(c)})
	}
	return h.Sum32()
}

// samplerPins are golden values for 200 walks at MaxSteps 2000,
// without stopping at the first bug, so every walk's draws count. The
// sampler rng is part of each engine's reproducibility contract (a
// recorded seed replays the same walks), so any change to how walks
// draw their random numbers must leave these numbers untouched.
var samplerPins = map[string]samplerPin{
	"counter-racy-2x2|random":        {200, 1600, 32, 1, 0x8063efdd},
	"counter-racy-2x2|random:7":      {200, 1600, 32, 1, 0xd4ed3569},
	"counter-racy-2x2|pct:3":         {200, 1600, 21, 1, 0x65996cc9},
	"counter-racy-2x2|pct:2:9":       {200, 1600, 8, 1, 0xd4ed3569},
	"counter-racy-2x2|pos":           {200, 1600, 31, 1, 0xbd26bf09},
	"counter-racy-2x2|pos:9":         {200, 1600, 32, 1, 0x4dd2f669},
	"account-racy-3|random":          {200, 2400, 120, 1, 0xc07a6e5b},
	"account-racy-3|random:7":        {200, 2400, 117, 1, 0xf3d27927},
	"account-racy-3|pct:3":           {200, 2400, 44, 1, 0x141020c9},
	"account-racy-3|pct:2:9":         {200, 2400, 29, 1, 0x141020c9},
	"account-racy-3|pos":             {200, 2400, 119, 1, 0x6a49b3b9},
	"account-racy-3|pos:9":           {200, 2400, 109, 1, 0x14db11ab},
	"dcl-3|random":                   {200, 3937, 12, 1, 0xd03aad2f},
	"dcl-3|random:7":                 {200, 3904, 15, 1, 0x252a2735},
	"dcl-3|pct:3":                    {200, 3292, 15, 1, 0xc98dc2b5},
	"dcl-3|pct:2:9":                  {200, 3118, 15, 1, 0xc5edb528},
	"dcl-3|pos":                      {200, 3619, 15, 1, 0xcbd311ef},
	"dcl-3|pos:9":                    {200, 3622, 15, 1, 0x7617535f},
	"lastzero-3|random":              {200, 1711, 11, 1, 0xf8be8499},
	"lastzero-3|random:7":            {200, 1719, 11, 1, 0x8739188d},
	"lastzero-3|pct:3":               {200, 1747, 12, 1, 0x16367813},
	"lastzero-3|pct:2:9":             {200, 1755, 12, 1, 0x2f1ab0f5},
	"lastzero-3|pos":                 {200, 1763, 12, 1, 0x6c886d7},
	"lastzero-3|pos:9":               {200, 1764, 12, 1, 0x12d8ed27},
	"peterson-2|random":              {200, 4194, 23, 1, 0xae4e9298},
	"peterson-2|random:7":            {200, 4165, 22, 1, 0xf26dff82},
	"peterson-2|pct:3":               {200, 3931, 16, 1, 0x6dbd2fc7},
	"peterson-2|pct:2:9":             {200, 3917, 8, 1, 0xda8764cc},
	"peterson-2|pos":                 {200, 4156, 30, 1, 0x2800ba51},
	"peterson-2|pos:9":               {200, 4239, 33, 1, 0x15d43e1f},
	"philosophers-3|random":          {200, 2550, 5, 1, 0xa27be3e4},
	"philosophers-3|random:7":        {200, 2610, 5, 4, 0x57cf393e},
	"philosophers-3|pct:3":           {200, 3450, 7, 4, 0x57cf393e},
	"philosophers-3|pct:2:9":         {200, 3525, 7, 60, 0xfdac0152},
	"philosophers-3|pos":             {200, 3075, 7, 6, 0xdca4792},
	"philosophers-3|pos:9":           {200, 2910, 7, 3, 0xdca4792},
	"coarse-tail-3x3|random":         {200, 4200, 81, 1, 0x2586350c},
	"coarse-tail-3x3|random:7":       {200, 4200, 78, 1, 0x7b7ba67e},
	"coarse-tail-3x3|pct:3":          {200, 4200, 71, 1, 0x5ecdf694},
	"coarse-tail-3x3|pct:2:9":        {200, 4200, 37, 1, 0x5ecdf694},
	"coarse-tail-3x3|pos":            {200, 4200, 99, 1, 0xd229a80a},
	"coarse-tail-3x3|pos:9":          {200, 4200, 95, 1, 0x8c5d1156},
	"synth-05|random":                {200, 2800, 23, 1, 0x48a1ccf8},
	"synth-05|random:7":              {200, 2800, 22, 1, 0xd8bf5bd6},
	"synth-05|pct:3":                 {200, 2800, 16, 1, 0xc8a7b486},
	"synth-05|pct:2:9":               {200, 2800, 8, 1, 0xecda1614},
	"synth-05|pos":                   {200, 2800, 27, 1, 0xba1db6ac},
	"synth-05|pos:9":                 {200, 2800, 27, 1, 0x7782c25e},
	"chan-select-order-bug|random":   {200, 1154, 3, 14, 0xeff4a2fe},
	"chan-select-order-bug|random:7": {200, 1143, 3, 3, 0x21bd14c2},
	"chan-select-order-bug|pct:3":    {200, 1134, 3, 3, 0xeff4a2fe},
	"chan-select-order-bug|pct:2:9":  {200, 1131, 3, 4, 0xeff4a2fe},
	"chan-select-order-bug|pos":      {200, 1135, 3, 1, 0x39f994aa},
	"chan-select-order-bug|pos:9":    {200, 1130, 3, 1, 0xeff4a2fe},
	"chan-lost-wakeup|random":        {200, 600, 3, 1, 0x25ae7ee1},
	"chan-lost-wakeup|random:7":      {200, 600, 3, 1, 0x25ae7ee1},
	"chan-lost-wakeup|pct:3":         {200, 600, 3, 9, 0x25ae7ee1},
	"chan-lost-wakeup|pct:2:9":       {200, 600, 3, 3, 0x25ae7ee1},
	"chan-lost-wakeup|pos":           {200, 600, 3, 4, 0x25ae7ee1},
	"chan-lost-wakeup|pos:9":         {200, 600, 3, 4, 0x25ae7ee1},
	"hostile-panic|random":           {200, 600, 2, 1, 0x25ae7ee1},
	"hostile-panic|random:7":         {200, 600, 2, 1, 0x25ae7ee1},
	"hostile-panic|pct:3":            {200, 600, 2, 1, 0x25ae7ee1},
	"hostile-panic|pct:2:9":          {200, 600, 2, 1, 0x25ae7ee1},
	"hostile-panic|pos":              {200, 600, 2, 1, 0xcca45ff},
	"hostile-panic|pos:9":            {200, 600, 2, 1, 0x31ccbed5},
	"gh-racy-3|random":               {200, 1200, 36, 1, 0x10bb6139},
	"gh-racy-3|random:7":             {200, 1200, 36, 1, 0xde69c4d1},
	"gh-racy-3|pct:3":                {200, 1200, 26, 1, 0xe06f8e3f},
	"gh-racy-3|pct:2:9":              {200, 1200, 18, 1, 0xe06f8e3f},
	"gh-racy-3|pos":                  {200, 1200, 36, 1, 0x7bc3df6f},
	"gh-racy-3|pos:9":                {200, 1200, 36, 1, 0x10bb6139},
}

// TestSamplerGoldenPins runs every pinned sampler spec on every
// pinned program and compares the Result's counters with the golden
// values.
func TestSamplerGoldenPins(t *testing.T) {
	opt := Options{ScheduleLimit: 200, MaxSteps: 2000}
	for _, prog := range samplerPinPrograms {
		src := samplerPinProgram(t, prog)
		for _, s := range samplerPinSpecs {
			key := prog + "|" + s.spec
			res := s.eng().Explore(src, opt)
			got := samplerPin{res.Schedules, res.Events, res.DistinctHBRs, res.FirstBugSchedule,
				witnessHash(res.FirstViolation)}
			if want, ok := samplerPins[key]; !ok || got != want {
				t.Errorf("%s: got %+v, want %+v\n\t%q: {%d, %d, %d, %d, %#x},", key, got, want,
					key, got.Schedules, got.Events, got.DistinctHBRs, got.FirstBug, got.Witness)
			}
		}
	}
}
