package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range append(append([]string(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("metric name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "-lead", "has space", "slash/no", "x" + string(make([]byte, 64))} {
		if metricName.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

// BENCHMARK.json, at the repository root, names exactly the metrics
// and workloads this command reports, except the paper-figs workload:
// the command runs it, but it is not steady enough on the reference
// machine to gate a change (README.md, "Steadiness").
func TestBenchmarkDescriptionMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &desc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range desc.Workloads {
		names = append(names, w.Name)
	}
	gated := slices.DeleteFunc(slices.Clone(workloads), func(w string) bool { return w == "paper-figs" })
	if !slices.Equal(names, gated) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, gated)
	}
	names = names[:0]
	for _, m := range desc.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !slices.Equal(names, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", names, endToEnd)
	}
	names = names[:0]
	for _, m := range desc.PerLayer {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", names, perLayer)
	}
}
