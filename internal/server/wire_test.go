package server

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"tooleval"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wireGoldenSpecs holds one spec of each kind, each small enough that
// its whole SSE stream fits in a readable golden.
var wireGoldenSpecs = []tooleval.ExperimentSpec{
	{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 1024}},
	{Kind: tooleval.KindBroadcast, Platform: "sun-ethernet", Tool: "pvm", Procs: 4, Sizes: []int{64}},
	{Kind: tooleval.KindRing, Platform: "sun-atm-lan", Tool: "express", Procs: 4, Sizes: []int{64}},
	{Kind: tooleval.KindGlobalSum, Platform: "sun-ethernet", Tool: "p4", Procs: 4, Sizes: []int{10}},
	{Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4", App: "fft2d", ProcsList: []int{1, 2}, Scale: 0.1},
	{Kind: tooleval.KindEvaluate, Scale: 0.05, Profile: "developer"},
}

// TestWireGolden pins toolbenchd's bytes on the wire: for a
// single-spec job of each kind, the request body, every SSE frame of
// the live stream and the report. Each job runs on a fresh
// Parallelism: 1 server, so its job id and its frame order are fixed.
// Regenerate with `go test ./internal/server -run TestWireGolden
// -update` only for an intended change of the HTTP API.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range wireGoldenSpecs {
		_, ts := newTestServer(t, Config{Parallelism: 1})
		batch := []tooleval.ExperimentSpec{spec}
		body, err := io.ReadAll(specsBody(t, batch))
		if err != nil {
			t.Fatal(err)
		}
		resp := streamJob(t, ts.URL, "golden", batch)
		frames, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading stream: %v", spec.Kind, err)
		}
		code, report := fetchReport(t, ts.URL, "golden", "j-000001")
		if code != http.StatusOK {
			t.Fatalf("%s: report status %d: %s", spec.Kind, code, report)
		}
		fmt.Fprintf(&got, "=== %s\n--- request\n%s\n--- stream\n%s--- report\n%s\n", spec.Kind, body, frames, report)
	}

	path := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gotLines), len(wantLines)) {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("wire bytes drifted at %s:%d\ngot:  %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("wire bytes drifted: %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
