package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tooleval"
	"tooleval/internal/bench"
	"tooleval/internal/remote"
	"tooleval/internal/runner"
)

// -update regenerates the golden files instead of comparing against
// them: go test ./cmd/toolbench -run TestReportJSONGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

var bg = context.Background()

func TestRunExperiments(t *testing.T) {
	outDir := t.TempDir()
	for _, exp := range []string{"list", "table3", "table4", "fig2", "fig3", "adl", "trace"} {
		if err := run(bg, []string{"-out", outDir, exp}, io.Discard); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	if err := run(bg, []string{"-chart", "fig2"}, io.Discard); err != nil {
		t.Fatalf("chart mode: %v", err)
	}
	// Artifacts written?
	for _, f := range []string{"table3.txt", "table4.txt", "fig2.txt", "fig2.dat", "adl.txt"} {
		if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
	t4, err := os.ReadFile(filepath.Join(outDir, "table4.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(t4), "send/receive") {
		t.Fatalf("table4 artifact malformed:\n%s", t4)
	}
}

func TestRunAPLFigureSmallScale(t *testing.T) {
	if err := run(bg, []string{"-scale", "0.1", "fig7"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunReport(t *testing.T) {
	if err := run(bg, []string{"-scale", "0.1", "-profile", "developer", "report"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(bg, []string{"-profile", "nonexistent", "report"}, io.Discard); err == nil {
		t.Fatal("unknown profile should error")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	err := run(ctx, []string{"-scale", "0.05", "fig2"}, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run under cancelled ctx = %v, want context.Canceled", err)
	}
}

// runArgsTable drives TestRunArgs; TestExperimentIDsCovered checks it
// stays exhaustive over tooleval.Experiments().
var runArgsTable = []struct {
	name string
	args []string
	code int // exit status: 0 success or -h, 1 failure, 2 usage error
}{
	// Every experiment id dispatches (small scale keeps APL cheap).
	{"table3", []string{"-scale", "0.05", "table3"}, 0},
	{"table4", []string{"-scale", "0.05", "table4"}, 0},
	{"fig2", []string{"-scale", "0.05", "fig2"}, 0},
	{"fig3", []string{"-scale", "0.05", "fig3"}, 0},
	{"fig4", []string{"-scale", "0.05", "fig4"}, 0},
	{"fig5", []string{"-scale", "0.05", "fig5"}, 0},
	{"fig6", []string{"-scale", "0.05", "fig6"}, 0},
	{"fig7", []string{"-scale", "0.05", "fig7"}, 0},
	{"fig8", []string{"-scale", "0.05", "fig8"}, 0},
	{"adl", []string{"adl"}, 0},
	{"trace", []string{"trace"}, 0},
	{"list", []string{"list"}, 0},
	{"report", []string{"-scale", "0.05", "report"}, 0},
	{"all", []string{"-scale", "0.05", "all"}, 0},
	// Parallelism flags.
	{"explicit -j", []string{"-j", "4", "-scale", "0.05", "fig2"}, 0},
	{"serial -j", []string{"-j", "1", "fig3"}, 0},
	{"zero -j", []string{"-j", "0", "fig2"}, 1},
	{"negative -j", []string{"-j", "-2", "fig2"}, 1},
	{"non-numeric -j", []string{"-j", "many", "fig2"}, 2},
	// Remote backend flag.
	{"workers unreachable", []string{"-workers", "127.0.0.1:1", "-scale", "0.05", "fig2"}, 1},
	{"duplicate workers", []string{"-workers", "127.0.0.1:1,127.0.0.1:1", "-scale", "0.05", "fig2"}, 1},
	{"duplicate workers after trim", []string{"-workers", "127.0.0.1:1, 127.0.0.1:1", "fig2"}, 1},
	{"removed shards flag", []string{"-shards", "4", "fig2"}, 2},
	// Report format flag.
	{"json report", []string{"-scale", "0.05", "-format", "json", "report"}, 0},
	{"json all", []string{"-scale", "0.05", "-format", "json", "all"}, 0},
	{"json non-report", []string{"-format", "json", "fig2"}, 1},
	{"unknown format", []string{"-format", "xml", "report"}, 1},
	// Invalid invocations.
	{"no experiment", []string{}, 1},
	{"two experiments", []string{"fig2", "fig3"}, 1},
	{"unknown experiment", []string{"fig99"}, 1},
	{"unknown profile", []string{"-profile", "operator", "report"}, 1},
	{"non-numeric scale", []string{"-scale", "big", "fig2"}, 2},
	{"unknown flag", []string{"-bogus", "fig2"}, 2},
	{"help", []string{"-h"}, 0},
}

func TestRunArgs(t *testing.T) {
	for _, tt := range runArgsTable {
		t.Run(tt.name, func(t *testing.T) {
			err := runIO(bg, tt.args, io.Discard, io.Discard)
			if got := exitCode(err, io.Discard); got != tt.code {
				t.Errorf("run(%v) error = %v, exit status %d, want %d", tt.args, err, got, tt.code)
			}
		})
	}
}

func TestExperimentIDsCovered(t *testing.T) {
	// Guards runArgsTable against a new experiment id silently going
	// untested: every id tooleval.Experiments reports must appear as a
	// passing entry. Coverage is asserted statically — TestRunArgs
	// already performs the actual dispatch.
	covered := map[string]bool{}
	for _, tt := range runArgsTable {
		if tt.code == 0 && len(tt.args) > 0 {
			covered[tt.args[len(tt.args)-1]] = true
		}
	}
	for _, exp := range tooleval.Experiments() {
		if !covered[exp] {
			t.Errorf("experiment %q missing from runArgsTable", exp)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(bg, []string{}, io.Discard); err == nil {
		t.Fatal("no experiment should error")
	}
	if err := run(bg, []string{"fig99"}, io.Discard); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestReportWritesJSON(t *testing.T) {
	outDir := t.TempDir()
	if err := run(bg, []string{"-scale", "0.1", "-out", outDir, "report"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(outDir, "report-end-user.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"ranking"`) {
		t.Fatalf("json report malformed:\n%s", blob)
	}
}

// TestJSONAllIsMachineReadable: `-format json all` must emit nothing
// but the closing JSON report on the output stream (the experiments
// still run and still write their -out artifacts).
func TestJSONAllIsMachineReadable(t *testing.T) {
	outDir := t.TempDir()
	var buf bytes.Buffer
	if err := run(bg, []string{"-scale", "0.05", "-format", "json", "-out", outDir, "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	var report struct {
		Profile string   `json:"profile"`
		Ranking []string `json:"ranking"`
	}
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("json all output is not pure JSON: %v\n%s", err, buf.Bytes())
	}
	if report.Profile != "end-user" || len(report.Ranking) == 0 {
		t.Fatalf("report payload malformed: %+v", report)
	}
	for _, f := range []string{"table3.txt", "fig2.dat", "report-end-user.json"} {
		if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
			t.Fatalf("json mode must still write artifact %s: %v", f, err)
		}
	}
}

// TestReportJSONGolden pins the exact bytes `-format json report`
// emits: virtual time makes the whole evaluation deterministic, so the
// machine-readable report must never drift without a reviewed golden
// update (-update regenerates it).
func TestReportJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(bg, []string{"-scale", "0.1", "-format", "json", "report"}, &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report-end-user.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("json report drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestProfilingFlags: -cpuprofile/-memprofile must produce non-empty
// pprof files without disturbing the experiment run.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run(bg, []string{"-cpuprofile", cpu, "-memprofile", mem, "fig2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", f)
		}
	}
	// An unwritable profile path must surface as an error.
	if err := run(bg, []string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "p"), "fig2"}, io.Discard); err == nil {
		t.Fatal("unwritable -cpuprofile should error")
	}
}

// TestProgressStreamsToStderrOnly: -progress must narrate phase
// lifecycle on the error stream while leaving the experiment stream
// byte-identical to a run without the flag.
func TestProgressStreamsToStderrOnly(t *testing.T) {
	var plain, progressed, progress bytes.Buffer
	if err := runIO(bg, []string{"-j", "2", "table4"}, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runIO(bg, []string{"-j", "2", "-progress", "table4"}, &progressed, &progress); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), progressed.Bytes()) {
		t.Fatalf("-progress changed stdout:\n--- without ---\n%s\n--- with ---\n%s", plain.Bytes(), progressed.Bytes())
	}
	lines := progress.String()
	// table4 regenerates Table 3 and Figures 2-4 inside its own phase.
	for _, want := range []string{
		"toolbench: table4 ...", "toolbench: table4 done",
		"toolbench: table3 done", "toolbench: fig2 done",
		"toolbench: fig3 done", "toolbench: fig4 done",
	} {
		if !strings.Contains(lines, want) {
			t.Fatalf("progress stream missing %q:\n%s", want, lines)
		}
	}
}

// startTestWorker serves real simulation cells — the same handler
// cmd/toolbench-worker runs — from an httptest server, optionally
// behind mw (the chaos variant wraps a kill switch around it).
func startTestWorker(t *testing.T, mw func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	h := remote.NewWorker(runner.New(4), bench.ComputeCell).Handler()
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// killAfter returns middleware that lets n cell RPCs through, then
// refuses every later one — a worker daemon dying mid-sweep.
func killAfter(n int64) func(http.Handler) http.Handler {
	var served atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/cells" && served.Add(1) > n {
				http.Error(rw, "worker killed by test", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(rw, r)
		})
	}
}

// TestAllOutputIdenticalAcrossParallelism is the CLI-level determinism
// acceptance: a full `all` sweep must emit byte-identical stdout and
// byte-identical .dat artifacts serially, at -j 8, distributed across
// remote workers (-workers), and distributed with one worker dying
// mid-sweep.
func TestAllOutputIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("four full small-scale sweeps")
	}
	w1 := startTestWorker(t, nil)
	w2 := startTestWorker(t, nil)
	doomed := startTestWorker(t, killAfter(5))
	modes := []struct {
		name string
		args []string
	}{
		{"serial", []string{"-j", "1"}},
		{"j8", []string{"-j", "8"}},
		{"remote", []string{"-j", "8", "-workers", w1.URL + "," + w2.URL}},
		{"remote-chaos", []string{"-j", "8", "-workers", doomed.URL + "," + w1.URL + "," + w2.URL}},
	}
	outs := map[string]*bytes.Buffer{}
	dirs := map[string]string{}
	for _, m := range modes {
		var buf bytes.Buffer
		dir := t.TempDir()
		args := append(append([]string{}, m.args...), "-scale", "0.05", "-out", dir, "all")
		if err := run(bg, args, &buf); err != nil {
			t.Fatalf("%s all: %v", m.name, err)
		}
		outs[m.name], dirs[m.name] = &buf, dir
	}
	serialFiles, err := os.ReadDir(dirs["serial"])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modes[1:] {
		if !bytes.Equal(outs["serial"].Bytes(), outs[m.name].Bytes()) {
			t.Fatalf("`all` stdout differs between serial and %s", m.name)
		}
		var datSeen int
		for _, f := range serialFiles {
			a, err := os.ReadFile(filepath.Join(dirs["serial"], f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dirs[m.name], f.Name()))
			if err != nil {
				t.Fatalf("artifact %s missing under %s: %v", f.Name(), m.name, err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("artifact %s differs between serial and %s", f.Name(), m.name)
			}
			if strings.HasSuffix(f.Name(), ".dat") {
				datSeen++
			}
		}
		if datSeen == 0 {
			t.Fatal("no .dat artifacts compared")
		}
	}
}

// TestAllOutputsGolden pins every output byte of the paper sweep: the
// SHA-256 of `-scale 0.1 -out DIR all`'s stdout and of each artifact it
// writes must match testdata/all-scale0.1.sha256, so a change that must
// not move a simulated number is checked against the committed digests.
// A mismatch names each artifact that drifted; -update regenerates the
// file.
func TestAllOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("a full small-scale sweep")
	}
	var buf bytes.Buffer
	dir := t.TempDir()
	if err := run(bg, []string{"-scale", "0.1", "-out", dir, "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	digest := func(name string, b []byte) { fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(b), name) }
	digest("stdout", buf.Bytes())
	artifacts := readDir(t, dir)
	for _, name := range slices.Sorted(maps.Keys(artifacts)) {
		digest(name, []byte(artifacts[name]))
	}
	golden := filepath.Join("testdata", "all-scale0.1.sha256")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got.String() == string(want) {
		return
	}
	sums := func(text string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if sum, name, ok := strings.Cut(line, "  "); ok {
				m[name] = sum
			}
		}
		return m
	}
	gotSums, wantSums := sums(got.String()), sums(string(want))
	for _, name := range slices.Sorted(maps.Keys(wantSums)) {
		switch sum, ok := gotSums[name]; {
		case !ok:
			t.Errorf("%s: not written", name)
		case sum != wantSums[name]:
			t.Errorf("%s: drifted from its golden digest", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(gotSums)) {
		if _, ok := wantSums[name]; !ok {
			t.Errorf("%s: written, but has no golden digest", name)
		}
	}
	if !t.Failed() {
		t.Errorf("digest file differs in layout from the one generated:\n%s", got.String())
	}
}

// readDir returns name -> contents for every regular file in dir.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func TestStoreMakesAllIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("three full (scaled) sweeps")
	}
	store := t.TempDir()
	base := []string{"-scale", "0.05", "-stats"}

	// Storeless reference run.
	var ref bytes.Buffer
	refOut := t.TempDir()
	if err := runIO(bg, append(append([]string{}, base...), "-out", refOut, "all"), &ref, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Cold run populates the store.
	var cold, coldStats bytes.Buffer
	coldOut := t.TempDir()
	if err := runIO(bg, append(append([]string{}, base...), "-store", store, "-out", coldOut, "all"), &cold, &coldStats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(coldStats.String(), "hits=") {
		t.Fatalf("-stats wrote nothing to stderr: %q", coldStats.String())
	}
	if strings.Contains(coldStats.String(), "misses=0\n") {
		t.Fatalf("cold run claims zero misses: %q", coldStats.String())
	}
	if _, err := os.Stat(filepath.Join(store, "cells.seg")); err != nil {
		t.Fatalf("segment file not written: %v", err)
	}

	// Warm run replays every cell: zero misses, byte-identical artifacts.
	var warm, warmStats bytes.Buffer
	warmOut := t.TempDir()
	if err := runIO(bg, append(append([]string{}, base...), "-store", store, "-out", warmOut, "all"), &warm, &warmStats); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warmStats.String(), "misses=0") {
		t.Fatalf("warm run still simulated cells: %q", warmStats.String())
	}
	if cold.String() != ref.String() || warm.String() != ref.String() {
		t.Fatal("stdout differs between storeless, cold-store, and warm-store runs")
	}
	refFiles := readDir(t, refOut)
	for name, dir := range map[string]string{"cold": coldOut, "warm": warmOut} {
		files := readDir(t, dir)
		if len(files) != len(refFiles) {
			t.Fatalf("%s run wrote %d artifacts, reference %d", name, len(files), len(refFiles))
		}
		for f, want := range refFiles {
			if files[f] != want {
				t.Fatalf("%s run artifact %s differs from the storeless reference", name, f)
			}
		}
	}
}

func TestStoreRecoversFromCorruption(t *testing.T) {
	store := t.TempDir()
	args := []string{"-scale", "0.05", "-store", store, "table3"}

	var first bytes.Buffer
	if err := runIO(bg, args, &first, io.Discard); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(store, "cells.seg")
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) < 200 {
		t.Fatalf("segment suspiciously small: %d bytes", len(blob))
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// The damaged store must not crash the run or change its numbers:
	// the corrupt suffix is dropped and re-simulated.
	var second, secondStats bytes.Buffer
	if err := runIO(bg, append([]string{"-stats"}, args...), &second, &secondStats); err != nil {
		t.Fatalf("run over a corrupted store failed: %v", err)
	}
	if second.String() != first.String() {
		t.Fatal("output changed after segment corruption")
	}
	if !strings.Contains(secondStats.String(), "misses=") || strings.Contains(secondStats.String(), "misses=0\n") {
		t.Fatalf("corruption recovery should re-simulate some cells: %q", secondStats.String())
	}

	// And the store heals: the next run is fully warm again.
	var third, thirdStats bytes.Buffer
	if err := runIO(bg, append([]string{"-stats"}, args...), &third, &thirdStats); err != nil {
		t.Fatal(err)
	}
	if third.String() != first.String() {
		t.Fatal("output changed after recovery")
	}
	if !strings.Contains(thirdStats.String(), "misses=0") {
		t.Fatalf("store did not heal after recovery: %q", thirdStats.String())
	}
}

func TestStoreFlagRejectsBadDir(t *testing.T) {
	// A path whose parent is a file cannot become a store directory; the
	// IO error must surface as a normal CLI error, not a panic.
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(bg, []string{"-store", filepath.Join(file, "sub"), "table4"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("run error = %v, want a -store IO error", err)
	}
}

// TestParseFlagsHelp pins the -h output, and with it the flag set:
// adding, removing or rewording a flag must update
// testdata/flags.golden (go test ./cmd/toolbench -run
// TestParseFlagsHelp -update).
func TestParseFlagsHelp(t *testing.T) {
	// The -j default is GOMAXPROCS; pin it so the text is the same on
	// every machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var out bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-h) = %v, want flag.ErrHelp", err)
	}
	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("-h output differs from %s (rerun with -update after an intended flag change):\n%s", golden, got)
	}
}
