package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestParseFlags pins where each bad command line is caught: a usage
// error comes out of parseFlags (main exits 2), a rejected value out
// of run before it listens (main exits 1).
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    string
		flagErr string // substring of the parseFlags error
		runErr  string // substring of the run error
	}{
		{name: "unknown flag", args: "-bogus", flagErr: "flag provided but not defined"},
		{name: "malformed -j", args: "-j many", flagErr: "invalid value"},
		{name: "zero -j", args: "-j 0", runErr: "need at least one worker"},
		{name: "positional argument", args: "serve", runErr: "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			cfg, err := parseFlags(strings.Fields(tc.args), &out)
			if tc.flagErr != "" {
				if err == nil || errors.Is(err, flag.ErrHelp) || !strings.Contains(err.Error(), tc.flagErr) {
					t.Fatalf("parseFlags(%q) = %v, want error containing %q", tc.args, err, tc.flagErr)
				}
				if !strings.Contains(out.String(), "usage: toolbench-worker") {
					t.Errorf("parseFlags(%q) printed no usage:\n%s", tc.args, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			}
			if err := run(cfg); err == nil || !strings.Contains(err.Error(), tc.runErr) {
				t.Fatalf("run(%q) = %v, want error containing %q", tc.args, err, tc.runErr)
			}
		})
	}
}

// TestParseFlagsHelp pins the -h output, and with it the flag set
// (go test ./cmd/toolbench-worker -run TestParseFlagsHelp -update
// after an intended flag change).
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
