package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func lastLine(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return v
}

// One short untraced and one short traced run print every metric the
// benchmark names, with its unit, and pass every correctness check; the
// closure workload's channel programs show up as the known defect.
func TestRunClosures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := runMain([]string{"--workload", "sct-closures", "--seed", "5", "--seconds", "1", "--trace", trace, "--out", ""}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		v := lastLine(t, out.String())
		if v["correct"] != true || v["failed"].(float64) != 0 || v["attempted"].(float64) < 100 {
			t.Fatalf("trace %s: result %v\n%s", trace, v, errb.String())
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer
		}
		metrics := v["metrics"].(map[string]any)
		if len(metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, n := range want {
			m, ok := metrics[n].(map[string]any)
			if !ok || m["unit"] == "" {
				t.Errorf("trace %s: metric %s missing or without unit", trace, n)
			}
		}
		if !strings.Contains(out.String(), "known defect:") {
			t.Errorf("trace %s: the channel probe's known defect is not reported", trace)
		}
	}
}

func TestRunBugHunt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	res, _, err := run("bug-hunt", 9, time.Nanosecond, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Defects != 0 || res.Metrics["bugs_found_share"].Value <= 0 {
		t.Fatalf("bug-hunt: %+v", res)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--seconds", "1", "--out", ""},
		{"--workload", "sct-closures", "--seconds", "0"},
		{"--workload", "sct-closures", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := runMain(args, &out, &errb); code == 0 {
			t.Errorf("runMain(%q) succeeded", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("runMain(%q) printed a result", args)
		}
	}
}

func TestSetupSamplerSpreadsRepetitions(t *testing.T) {
	var nilSampler *setupSampler
	if err := nilSampler.tick(); err != nil || nilSampler.spent() != 0 {
		t.Fatalf("nil sampler: err %v, spent %v", err, nilSampler.spent())
	}
	n := 0
	st := &setupSampler{do: func() error { n++; time.Sleep(time.Millisecond); return nil }}
	if err := st.burst(3); err != nil {
		t.Fatal(err)
	}
	if err := st.tick(); err != nil || n != 3 {
		t.Fatalf("a tick right after a burst set up again: %d set-ups, err %v", n, err)
	}
	// Ten intervals since the last burst: the next one takes about
	// setupShare of them, some dozens of 1 ms set-ups.
	st.last = st.last.Add(-10 * setupEvery)
	if err := st.tick(); err != nil {
		t.Fatal(err)
	}
	if n < 3+10 || len(st.times) != n || st.spent() < time.Duration(n)*time.Millisecond {
		t.Fatalf("after a late tick: %d set-ups, %d times, spent %v", n, len(st.times), st.spent())
	}
}
