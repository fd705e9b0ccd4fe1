// Command benchjson converts `go test -bench` output on stdin into a
// labeled section of the JSON benchmark ledger (BENCH_LEDGER.json): for each
// benchmark it records ns/op, B/op and allocs/op. Labeled sections let
// one file hold a before/after pair (e.g. "seed" vs "pr3") so perf PRs
// ship with their measured evidence.
//
// Usage:
//
//	go test -run=NoSuchTest -bench=. -benchmem ./... | \
//	    go run ./scripts/benchjson -label baseline
//
// The output file is read-modify-written: other labels are preserved,
// the given label is replaced wholesale.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Metrics is one benchmark's recorded costs.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	label := flag.String("label", "", "section name to write (e.g. seed, pr3)")
	out := flag.String("out", "BENCH_LEDGER.json", "JSON ledger to update")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}
	section, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(section) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	ledger := map[string]map[string]Metrics{}
	if blob, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(blob, &ledger); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	ledger[*label] = section
	blob, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s section %q\n", len(section), *out, *label)
}

// parse extracts (name -> metrics) from benchmark output lines of the
// form:
//
//	BenchmarkName-8   100   1234 ns/op   8 extra-metric   56 B/op   7 allocs/op
//
// Custom ReportMetric columns are ignored; the GOMAXPROCS suffix is
// stripped from the name.
func parse(f *os.File) (map[string]Metrics, error) {
	res := map[string]Metrics{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var m Metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, seen = v, true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if seen {
			res[name] = m
		}
	}
	return res, sc.Err()
}
