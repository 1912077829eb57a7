// Package bench provides the benchmark corpus used to reproduce the
// paper's evaluation (Figures 2 and 3). The paper evaluated 79
// open-source multithreaded Java benchmarks; those are not available
// offline, so this corpus substitutes deterministic progdsl programs
// spanning the same structural spectrum (see DESIGN.md §2): classic
// SCT/DPOR benchmarks, coarse-grained-locking families where the lazy
// HBR collapses equivalence classes, interference-heavy programs that
// sit on the diagonal, and a seeded synthetic family. The first 79
// entries reproduce the paper's corpus size and keep their IDs
// pinned; the channel family (IDs 80+) extends the evaluation to the
// message-passing dependence rules the Java corpus could not exhibit.
//
// Entries are registered once, as builders, when the package is
// initialised. ByName and ByID build only the program they return, so
// a campaign that resolves one program per cell pays for that program
// alone; All builds the whole corpus afresh on every call.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/progdsl"
)

// Convenient register names for the builders in this package.
const (
	r0 = progdsl.Reg(0)
	r1 = progdsl.Reg(1)
	r2 = progdsl.Reg(2)
	r3 = progdsl.Reg(3)
)

// Benchmark is one corpus entry.
type Benchmark struct {
	// ID is the benchmark's stable 1-based identifier, used as the
	// point label in the reproduced figures.
	ID int
	// Name is unique and stable, e.g. "coarse-disjoint-3x2".
	Name string
	// Family groups parameter variants.
	Family string
	// Notes describes what the benchmark exercises.
	Notes string
	// Program is the program under test.
	Program model.Source
}

type entry struct {
	name   string
	family string
	notes  string
	build  func() model.Source
}

// families in registration order; each contributes a fixed number of
// entries so IDs are stable.
func allEntries() []entry {
	var es []entry
	es = append(es, coarseEntries()...)
	es = append(es, classicEntries()...)
	es = append(es, accountEntries()...)
	es = append(es, lockEntries()...)
	es = append(es, queueEntries()...)
	es = append(es, syntheticEntries()...)
	// New families append strictly after the paper's 79 so existing IDs
	// never shift.
	es = append(es, chanEntries()...)
	return es
}

// The registration tables, built once at package initialisation and
// never modified: corpus[i] has ID i+1, hostile[i] has ID
// HostileIDBase+i+1, and ids maps every corpus and hostile name to its
// ID. Entries hold builders, not programs, so every lookup still
// builds a fresh program.
var (
	corpus  = allEntries()
	hostile = hostileEntries()
	ids     = nameIndex()
)

// benchmark builds the entry's program under the given ID.
func (e entry) benchmark(id int) Benchmark {
	return Benchmark{
		ID:      id,
		Name:    e.name,
		Family:  e.family,
		Notes:   e.notes,
		Program: e.build(),
	}
}

// All builds the full corpus. Programs are immutable and stateless, so
// the result can be shared; All rebuilds on each call to keep callers
// independent.
func All() []Benchmark {
	out := make([]Benchmark, len(corpus))
	for i, e := range corpus {
		out[i] = e.benchmark(i + 1)
	}
	return out
}

// Count is the corpus size: the paper's 79 plus the channel family.
const Count = 88

// ByName returns the benchmark with the given name, building only that
// program. It resolves both the pinned corpus and the hostile
// fault-injection programs (see hostile.go), which are addressable by
// name only.
func ByName(name string) (Benchmark, bool) {
	id, ok := ids[name]
	switch {
	case !ok:
		return Benchmark{}, false
	case id > HostileIDBase:
		return hostile[id-HostileIDBase-1].benchmark(id), true
	}
	return corpus[id-1].benchmark(id), true
}

// ByID returns the corpus benchmark with the given 1-based ID,
// building only that program.
func ByID(id int) (Benchmark, bool) {
	if id < 1 || id > len(corpus) {
		return Benchmark{}, false
	}
	return corpus[id-1].benchmark(id), true
}

// Families lists the distinct family names, sorted.
func Families() []string {
	seen := map[string]bool{}
	for _, e := range corpus {
		seen[e.family] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Names lists all benchmark names in ID order.
func Names() []string {
	out := make([]string, len(corpus))
	for i, e := range corpus {
		out[i] = e.name
	}
	return out
}

// nameIndex maps every corpus and hostile name to its ID. Names must
// be unique across both sets, since ByName resolves both.
func nameIndex() map[string]int {
	m := make(map[string]int, len(corpus)+len(hostile))
	add := func(name string, id int) {
		if _, dup := m[name]; dup {
			panic(fmt.Sprintf("bench: duplicate benchmark name %q", name))
		}
		m[name] = id
	}
	for i, e := range corpus {
		add(e.name, i+1)
	}
	for i, e := range hostile {
		add(e.name, HostileIDBase+i+1)
	}
	return m
}

func init() {
	if len(corpus) != Count {
		panic(fmt.Sprintf("bench: corpus has %d entries, want %d", len(corpus), Count))
	}
}
