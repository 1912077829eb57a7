package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func synth(workload string, seed int64, env Env, vals map[string]float64) resultFile {
	m := map[string]metric{}
	for k, v := range vals {
		better := "lower"
		if k == "searches_per_s" {
			better = "higher"
		}
		m[k] = metric{Value: v, Unit: "u", Better: better}
	}
	return resultFile{Workload: workload, Seed: seed, Seconds: 10, Limits: "grid", Env: env, Metrics: m,
		Started: time.Unix(seed, 0)}
}

var testEnv = Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2, CPUModel: "cpu"}

func side(env Env, f func(i int) map[string]float64) []resultFile {
	var out []resultFile
	for i := 0; i < 10; i++ {
		out = append(out, synth("w", int64(i+1), env, f(i)))
	}
	return out
}

func verdicts(t *testing.T, a, b []resultFile) map[string]string {
	t.Helper()
	rows, err := compare(a, b, map[string]float64{"searches_per_s": 0.1, "search_ms_p50": 0.1, "steady": 0.1, "noisy": 0.1, "worse": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	jitter := func(i int) float64 { return float64(i%3) * 0.01 }
	base := side(testEnv, func(i int) map[string]float64 {
		return map[string]float64{
			"searches_per_s": 100 + jitter(i), // higher is better
			"search_ms_p50":  10 + jitter(i),
			"steady":         5 + jitter(i),
			"noisy":          5 + float64(i%5),
			"worse":          5 + jitter(i),
		}
	})
	change := side(testEnv, func(i int) map[string]float64 {
		return map[string]float64{
			"searches_per_s": 120 + jitter(i), // 20% more throughput
			"search_ms_p50":  8 + jitter(i),   // 20% less latency
			"steady":         5 + jitter((i+1)%3),
			"noisy":          5 + float64((i+2)%5),
			"worse":          6 + jitter(i), // 20% worse, bound 10%
		}
	})
	got := verdicts(t, base, change)
	want := map[string]string{
		"searches_per_s": improved,
		"search_ms_p50":  improved,
		"steady":         unchanged,
		"noisy":          unresolved,
		"worse":          regressed,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	// Swapping the sides swaps the claim.
	if v := verdicts(t, change, base)["searches_per_s"]; v != regressed {
		t.Errorf("swapped searches_per_s: verdict %q, want regressed", v)
	}
}

func TestCompareWinShare(t *testing.T) {
	base := side(testEnv, func(i int) map[string]float64 { return map[string]float64{"steady": 10} })
	change := side(testEnv, func(i int) map[string]float64 {
		if i < 9 {
			return map[string]float64{"steady": 9}
		}
		return map[string]float64{"steady": 10} // a tie counts for neither side
	})
	rows, err := compare(base, change, map[string]float64{"steady": 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].WinShare != 0.9 || rows[0].Verdict != improved || rows[0].Pairs != 10 {
		t.Fatalf("rows %+v", rows)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	base := side(testEnv, func(int) map[string]float64 { return map[string]float64{"steady": 1} })
	for _, mut := range []func(*Env){
		func(e *Env) { e.GoVersion = "go1.23.0" },
		func(e *Env) { e.NumCPU = 4 },
		func(e *Env) { e.GOMAXPROCS = 1 },
		func(e *Env) { e.CPUModel = "other" },
	} {
		env := testEnv
		mut(&env)
		change := side(env, func(int) map[string]float64 { return map[string]float64{"steady": 1} })
		if _, err := compare(base, change, nil); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("paired results of %+v with %+v: err %v", testEnv, env, err)
		}
	}
	other := side(testEnv, func(int) map[string]float64 { return map[string]float64{"steady": 1} })
	other[3].Limits = "another grid"
	if _, err := compare(base, other, nil); err == nil {
		t.Error("paired runs over different grids")
	}
}

// compare mode reads result directories as runs write them.
func TestCompareMainReadsDirectories(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, rs []resultFile) string {
		d := filepath.Join(dir, sub)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if err := writeResult(d, &r, nil); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	a := write("a", side(testEnv, func(int) map[string]float64 { return map[string]float64{"searches_per_s": 100} }))
	b := write("b", side(testEnv, func(int) map[string]float64 { return map[string]float64{"searches_per_s": 130} }))
	desc, _ := json.Marshal(map[string]any{"end_to_end": []map[string]any{{"name": "searches_per_s", "bound": 0.1}}})
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, desc, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := compareMain([]string{"--base", a, "--change", b, "--bench", bench}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "searches_per_s") || !strings.Contains(out.String(), improved) {
		t.Fatalf("output:\n%s", out.String())
	}
}
