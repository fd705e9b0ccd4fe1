// Command drift times the tpl-cold pass through the public Session API
// alone, so the same source builds against older commits of the
// module. Each round runs, each in a fresh session: Table 3 alone,
// Figure 3 alone, and the full TPL pass (Table 3, Figures 2-4, then
// Table 4 — the work BenchmarkTable4 times). It prints one JSON line
// with every sample and the median and quartiles of each.
//
// To time an older commit, build this package in a module whose
// go.mod replaces tooleval with a checkout of that commit:
//
//	go run ./drift -seconds 60 -label HEAD
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"tooleval"
	"tooleval/perfbench/tplpass"
)

func main() {
	seconds := flag.Float64("seconds", 60, "how long to keep running rounds")
	label := flag.String("label", "", "label copied into the output")
	flag.Parse()
	if err := run(*seconds, *label); err != nil {
		fmt.Fprintln(os.Stderr, "drift:", err)
		os.Exit(1)
	}
}

type summary struct {
	Label   string                `json:"label"`
	Rounds  int                   `json:"rounds"`
	Samples map[string][]float64  `json:"samples_ms"`
	Stats   map[string][3]float64 `json:"q1_median_q3_ms"`
}

// parallelism matches the benchmark's tpl-cold workload.
const parallelism = 2

func run(seconds float64, label string) error {
	ctx := context.Background()
	ref, err := tplpass.Run(ctx, tooleval.NewSession(tooleval.WithParallelism(1)), tplpass.Figures)
	if err != nil {
		return err
	}
	newSession := func() *tooleval.Session { return tooleval.NewSession(tooleval.WithParallelism(parallelism)) }
	timed := func(fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		return float64(time.Since(start).Nanoseconds()) / 1e6, err
	}
	out := summary{Label: label, Samples: make(map[string][]float64), Stats: make(map[string][3]float64)}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		steps := []struct {
			name string
			fn   func() error
		}{
			{"table3", func() error { _, err := newSession().Table3(ctx); return err }},
			{"fig3", func() error { _, err := newSession().Fig3(ctx, tplpass.Procs); return err }},
			{"tpl_pass", func() error {
				sum, err := tplpass.Run(ctx, newSession(), tplpass.Figures)
				if err == nil && sum != ref {
					err = fmt.Errorf("TPL pass output differs from the serial reference")
				}
				return err
			}},
		}
		for _, s := range steps {
			ms, err := timed(s.fn)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			out.Samples[s.name] = append(out.Samples[s.name], ms)
		}
		out.Rounds++
	}
	for name, xs := range out.Samples {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		out.Stats[name] = [3]float64{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// quantile interpolates linearly between the order statistics of the
// sorted sample s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
