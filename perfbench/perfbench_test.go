package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"tooleval"
	"tooleval/perfbench/tplpass"
)

func TestMixGenIsDeterministic(t *testing.T) {
	for tenant := 0; tenant < slots; tenant++ {
		a, b, other := newMixGen(7, tenant, 1), newMixGen(7, tenant, 1), newMixGen(8, tenant, 1)
		differs := false
		for i := 0; i < 200; i++ {
			ba, bb, bo := a.batch(), b.batch(), other.batch()
			if !reflect.DeepEqual(ba, bb) {
				t.Fatalf("tenant %d batch %d: same seed gave %v and %v", tenant, i, ba, bb)
			}
			differs = differs || !reflect.DeepEqual(ba, bo)
		}
		if !differs {
			t.Errorf("tenant %d: seeds 7 and 8 gave identical batches", tenant)
		}
	}
}

// TestMixGenCells: every hot cell a batch asks for is on the paper's
// ladder, and a fresh cell must miss every cache, so no two batches of
// either tenant may share one, nor hit the hot set.
func TestMixGenCells(t *testing.T) {
	hot := make(map[string]bool)
	for _, spec := range paperSeries() {
		for _, size := range spec.Sizes {
			hot[cellID(spec, size)] = true
		}
	}
	if len(hot) != 162 {
		t.Fatalf("hot set has %d distinct cells, want the 162 of the TPL pass", len(hot))
	}
	fresh := make(map[string]bool)
	for tenant := 0; tenant < slots; tenant++ {
		// Enough fresh cells that every family moves past its first
		// block of fresh sizes.
		g := newMixGen(3, tenant, 8)
		for i := 0; i < 10000; i++ {
			batch := g.batch()
			if len(batch) != specsPerJob+1 {
				t.Fatalf("tenant %d batch %d: %d specs, want %d", tenant, i, len(batch), specsPerJob+1)
			}
			for _, spec := range batch[:specsPerJob] {
				for _, size := range spec.Sizes {
					if id := cellID(spec, size); !hot[id] {
						t.Fatalf("tenant %d batch %d: hot cell %s is not in the hot set", tenant, i, id)
					}
				}
			}
			last := batch[specsPerJob]
			for _, size := range last.Sizes {
				id := cellID(last, size)
				if hot[id] || fresh[id] {
					t.Fatalf("tenant %d batch %d: fresh cell %s repeats", tenant, i, id)
				}
				fresh[id] = true
			}
		}
	}
}

// TestFreshFamiliesAreSupported: every family a fresh cell may come
// from simulates without error.
func TestFreshFamiliesAreSupported(t *testing.T) {
	var specs []tooleval.ExperimentSpec
	for _, f := range freshFamilies() {
		f.Sizes = []int{8}
		specs = append(specs, f)
	}
	if len(specs) != 62 {
		t.Errorf("%d fresh families, want 62", len(specs))
	}
	if _, err := tooleval.NewSession(tooleval.WithParallelism(slots)).Submit(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
}

func cellID(spec tooleval.ExperimentSpec, size int) string {
	b, _ := json.Marshal([]any{spec.Kind, spec.Platform, spec.Tool, spec.Procs, size})
	return string(b)
}

// TestPaperSeriesAreTheTPLCells: the daemon-mixed hot set is exactly
// what the TPL pass simulates, so after submitting it a pass in the
// same session simulates nothing.
func TestPaperSeriesAreTheTPLCells(t *testing.T) {
	ctx := context.Background()
	sess := tooleval.NewSession(tooleval.WithParallelism(slots))
	if _, err := sess.Submit(ctx, paperSeries()); err != nil {
		t.Fatal(err)
	}
	_, before := sess.Stats()
	if _, err := tplpass.Run(ctx, sess, tplpass.Figures); err != nil {
		t.Fatal(err)
	}
	if _, after := sess.Stats(); after != before {
		t.Errorf("the TPL pass simulated %d cells the hot set lacks", after-before)
	}
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !namePattern.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, namePattern)
		}
		if seen[d.name] {
			t.Errorf("metric %q defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root lists
// exactly the workloads and metrics this benchmark runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		var wantM []metric
		for _, d := range defs {
			wantM = append(wantM, metric{d.name, d.unit})
		}
		if !reflect.DeepEqual(got, wantM) {
			t.Errorf("BENCHMARK.json %s:\n got %v\nwant %v", kind, got, wantM)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced: each run
// must pass its output checks and print every metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			cfg := config{workload: wl.name, seed: 1, seconds: 0.3, trace: trace, root: "..", out: t.TempDir()}
			var out bytes.Buffer
			if err := run(context.Background(), cfg, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, m.Value)
				}
			}
			if !strings.Contains(out.String(), "failed_frac") {
				t.Errorf("%s trace=%v: no failed_frac line", wl.name, trace)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "runner", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "runner", Start: 40, End: 90},
		{ID: 4, Parent: 2, Layer: "bench", Start: 20, End: 50},
	}
	got := selfTimes(spans)
	want := map[string]float64{"op": msOf(20), "runner": msOf(20) + msOf(50), "bench": msOf(30)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}
