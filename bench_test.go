// Benchmarks that regenerate every table and figure of the paper's
// evaluation section (run with `go test -bench=. -benchmem`), plus the
// ablation studies of the design choices called out in DESIGN.md §6.
//
// Simulated (virtual) milliseconds are reported as custom metrics
// (sim-ms-*); the Go benchmark time measures the simulator itself.
package tooleval_test

import (
	"context"
	"testing"
	"time"

	"tooleval/internal/apps"
	"tooleval/internal/bench"
	"tooleval/internal/core"
	"tooleval/internal/mpt"
	"tooleval/internal/mpt/express"
	"tooleval/internal/mpt/p4"
	"tooleval/internal/mpt/pvm"
	"tooleval/internal/platform"
	"tooleval/internal/runner"
	"tooleval/internal/simnet"
	"tooleval/internal/usability"
)

const benchScale = 0.1 // APL workload scale for benchmark iterations

var benchCtx = context.Background()

// newBenchHarness returns a private harness with an empty memoization
// cache, built with b's timer stopped. The figure benchmarks build one
// per iteration, so every iteration simulates every cell: ns/op and
// B/op measure the simulator at any -benchtime, never a cache replay.
func newBenchHarness(b *testing.B) *bench.Harness {
	b.StopTimer()
	defer b.StartTimer()
	return bench.NewHarness(runner.New(0), nil)
}

func mustPf(b *testing.B, key string) platform.Platform {
	b.Helper()
	pf, err := platform.Get(key)
	if err != nil {
		b.Fatal(err)
	}
	return pf
}

// BenchmarkTable3 regenerates the snd/recv timing table (Table 3).
func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	var last *bench.Table3Result
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(b)
		t3, err := h.Table3(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		last = t3
	}
	b.ReportMetric(last.TimesMs["ethernet"]["p4"][7], "sim-ms-p4-eth-64K")
	b.ReportMetric(last.TimesMs["ethernet"]["express"][7], "sim-ms-express-eth-64K")
}

// BenchmarkTable4 regenerates the primitive rankings (Table 4).
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	var rankings []core.PrimitiveRanking
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(b)
		t3, err := h.Table3(benchCtx)
		if err != nil {
			b.Fatal(err)
		}
		fig2, err := h.Fig2(benchCtx, 4)
		if err != nil {
			b.Fatal(err)
		}
		fig3, err := h.Fig3(benchCtx, 4)
		if err != nil {
			b.Fatal(err)
		}
		fig4, err := h.Fig4(benchCtx, 4)
		if err != nil {
			b.Fatal(err)
		}
		rankings = bench.Table4FromMeasurements(t3, fig2, fig3, fig4)
	}
	b.ReportMetric(float64(len(rankings)), "ranking-cells")
}

// BenchmarkFig2Broadcast regenerates the broadcast figure.
func BenchmarkFig2Broadcast(b *testing.B) {
	b.ReportAllocs()
	var fig *bench.FigureResult
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(b)
		var err error
		fig, err = h.Fig2(benchCtx, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(fig, "express"), "sim-ms-express-64K")
	b.ReportMetric(lastY(fig, "p4"), "sim-ms-p4-64K")
}

// BenchmarkFig3Ring regenerates the ring figure.
func BenchmarkFig3Ring(b *testing.B) {
	b.ReportAllocs()
	var fig *bench.FigureResult
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(b)
		var err error
		fig, err = h.Fig3(benchCtx, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(fig, "pvm"), "sim-ms-pvm-64K")
	b.ReportMetric(lastY(fig, "express"), "sim-ms-express-64K")
}

// BenchmarkFig4GlobalSum regenerates the global summation figure.
func BenchmarkFig4GlobalSum(b *testing.B) {
	b.ReportAllocs()
	var fig *bench.FigureResult
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(b)
		var err error
		fig, err = h.Fig4(benchCtx, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lastY(fig, "p4"), "sim-ms-p4-100K")
	b.ReportMetric(lastY(fig, "express"), "sim-ms-express-100K")
}

func lastY(fig *bench.FigureResult, tool string) float64 {
	for _, s := range fig.Series {
		if s.Tool == tool && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	return -1
}

func benchAPLFigure(b *testing.B, figID string) {
	b.Helper()
	b.ReportAllocs()
	var fig *bench.FigureResult
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(b)
		var err error
		fig, _, err = h.APLFigure(benchCtx, figID, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(fig.Series)), "series")
}

// BenchmarkFig5AlphaFDDI regenerates the ALPHA/FDDI application figure.
func BenchmarkFig5AlphaFDDI(b *testing.B) { benchAPLFigure(b, "fig5") }

// BenchmarkFig6SP1Switch regenerates the IBM-SP1 application figure.
func BenchmarkFig6SP1Switch(b *testing.B) { benchAPLFigure(b, "fig6") }

// BenchmarkFig7NYNET regenerates the SUN/ATM-WAN application figure.
func BenchmarkFig7NYNET(b *testing.B) { benchAPLFigure(b, "fig7") }

// BenchmarkFig8SunEthernet regenerates the SUN/Ethernet application
// figure.
func BenchmarkFig8SunEthernet(b *testing.B) { benchAPLFigure(b, "fig8") }

// BenchmarkADLEvaluation scores the usability matrix under every weight
// profile.
func BenchmarkADLEvaluation(b *testing.B) {
	matrix, err := usability.Matrix()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, profile := range core.Profiles() {
			m, err := core.New(profile)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Evaluate(nil, nil, matrix); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- ablation benches (DESIGN.md §6) ------------------------------------

func pingPong64K(b *testing.B, pf platform.Platform, factory mpt.Factory) float64 {
	b.Helper()
	payload := make([]byte, 64<<10)
	res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
		const tag = 1
		if c.Rank() == 0 {
			t0 := c.Now()
			if err := c.Comm.Send(1, tag, payload); err != nil {
				return nil, err
			}
			if _, err := c.Comm.Recv(1, tag); err != nil {
				return nil, err
			}
			return (c.Now() - t0).Milliseconds(), nil
		}
		msg, err := c.Comm.Recv(0, tag)
		if err != nil {
			return nil, err
		}
		return nil, c.Comm.Send(0, tag, msg.Data)
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.Value.(float64)
}

// BenchmarkAblationExpressPacketSize shows why Express loses the
// large-message race: its fixed-size packetization. Bigger packets
// recover most of the gap to p4.
func BenchmarkAblationExpressPacketSize(b *testing.B) {
	pf := mustPf(b, "sun-ethernet")
	for _, pkt := range []int{256, 1024, 4096, 16384} {
		pkt := pkt
		b.Run(byteLabel(pkt), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				ms = pingPong64K(b, pf, func(env *mpt.Env) (mpt.Tool, error) {
					par := express.DefaultParams()
					par.PacketBytes = pkt
					return express.NewWithParams(env, par)
				})
			}
			b.ReportMetric(ms, "sim-ms-64K-rtt")
		})
	}
}

// BenchmarkAblationPVMDirectRoute shows the daemon hop is PVM's dominant
// cost: PvmRouteDirect recovers most of the gap to p4.
func BenchmarkAblationPVMDirectRoute(b *testing.B) {
	pf := mustPf(b, "sun-ethernet")
	for _, direct := range []bool{false, true} {
		direct := direct
		name := "daemon-route"
		if direct {
			name = "direct-route"
		}
		b.Run(name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				ms = pingPong64K(b, pf, func(env *mpt.Env) (mpt.Tool, error) {
					par := pvm.DefaultParams()
					par.RouteDirect = direct
					return pvm.NewWithParams(env, par)
				})
			}
			b.ReportMetric(ms, "sim-ms-64K-rtt")
		})
	}
}

// BenchmarkAblationBroadcastAlgo compares linear and binomial-tree
// broadcast over the same (p4) transport: the algorithm, not the
// transport, is why Express's broadcast is worst (§3.2.2: "performance
// greatly depends on the algorithm used").
func BenchmarkAblationBroadcastAlgo(b *testing.B) {
	pf := mustPf(b, "alpha-fddi")
	payload := make([]byte, 64<<10)
	for _, algo := range []string{"linear", "binomial"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				res, err := mpt.Run(pf, p4.New, mpt.RunConfig{Procs: 8}, func(c *mpt.Ctx) (any, error) {
					var in []byte
					if c.Rank() == 0 {
						in = payload
					}
					var err error
					if algo == "linear" {
						_, err = mpt.LinearBcast(c.Comm, 0, 5, in)
					} else {
						_, err = mpt.BinomialBcast(c.Comm, c.Comm.Send, 0, 5, in)
					}
					return nil, err
				})
				if err != nil {
					b.Fatal(err)
				}
				ms = float64(res.Elapsed.Milliseconds())
			}
			b.ReportMetric(ms, "sim-ms-64K-bcast8")
		})
	}
}

// BenchmarkAblationPVMRTO sweeps the pvmd retransmission timeout on the
// Ethernet ring: a tight RTO fires during ordinary bus queueing and the
// duplicate fragments feed the congestion (the mechanism behind Table
// 4's ring inversion); a generous RTO stays quiet.
func BenchmarkAblationPVMRTO(b *testing.B) {
	pf := mustPf(b, "sun-ethernet")
	for _, rtoMs := range []int{6, 12, 50, 200} {
		rtoMs := rtoMs
		b.Run(itoa(rtoMs)+"ms", func(b *testing.B) {
			var ms float64
			var retr int64
			for i := 0; i < b.N; i++ {
				payload := make([]byte, 64<<10)
				var tool *pvm.Tool
				factory := func(env *mpt.Env) (mpt.Tool, error) {
					par := pvm.DefaultParams()
					par.RTO = time.Duration(rtoMs) * time.Millisecond
					var err error
					tool, err = pvm.NewWithParams(env, par)
					return tool, err
				}
				res, err := mpt.Run(pf, factory, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
					const tag = 3
					next := (c.Rank() + 1) % c.Size()
					prev := (c.Rank() + c.Size() - 1) % c.Size()
					if err := c.Comm.Send(next, tag, payload); err != nil {
						return nil, err
					}
					_, err := c.Comm.Recv(prev, tag)
					return nil, err
				})
				if err != nil {
					b.Fatal(err)
				}
				ms = float64(res.Elapsed.Milliseconds())
				retr = tool.Stats().Retransmits
			}
			b.ReportMetric(ms, "sim-ms-ring64K")
			b.ReportMetric(float64(retr), "retransmits")
		})
	}
}

// BenchmarkAblationEthernetContention quantifies shared-medium collapse:
// ring time per station as the segment gets busier.
func BenchmarkAblationEthernetContention(b *testing.B) {
	pf := mustPf(b, "sun-ethernet")
	h := newBenchHarness(b)
	for _, procs := range []int{2, 4, 8} {
		procs := procs
		b.Run(procLabel(procs), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				times, err := h.Ring(benchCtx, pf.Key, "p4", procs, []int{32 << 10})
				if err != nil {
					b.Fatal(err)
				}
				ms = times[0] / float64(procs)
			}
			b.ReportMetric(ms, "sim-ms-per-station")
		})
	}
}

// BenchmarkAblationFDDISwitchVsRing compares the Alpha cluster's actual
// switched FDDI with a classic shared token ring: the switch is what
// lets the FFT's all-to-all scale (Fig 5). Both variants share the
// platform key "alpha-fddi", so each runs its fft2d cell directly
// rather than through a memoizing harness, which would serve the
// token ring the switched variant's cell.
func BenchmarkAblationFDDISwitchVsRing(b *testing.B) {
	base := mustPf(b, "alpha-fddi")
	app, err := apps.Get("fft2d")
	if err != nil {
		b.Fatal(err)
	}
	const procs, scale = 8, 0.5
	variants := []struct {
		name string
		mk   func(int) simnet.Network
	}{
		{"switched", func(n int) simnet.Network { return simnet.NewFDDISwitched(n) }},
		{"token-ring", func(n int) simnet.Network { return simnet.NewFDDIRing(n) }},
	}
	for _, v := range variants {
		v := v
		pf := base
		pf.NewNetwork = v.mk
		b.Run(v.name, func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				res, err := mpt.Run(pf, p4.New, mpt.RunConfig{Procs: procs}, func(c *mpt.Ctx) (any, error) {
					return app.Run(c, scale)
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := app.Verify(res.Value, procs, scale); err != nil {
					b.Fatal(err)
				}
				secs = res.Elapsed.Seconds()
				// The FFT times its transform alone, excluding the
				// verification-only scatter/gather, as Figure 5 does.
				if t, ok := res.Value.(interface{ InnerSeconds() (float64, bool) }); ok {
					if inner, valid := t.InnerSeconds(); valid {
						secs = inner
					}
				}
			}
			b.ReportMetric(secs*1000, "sim-ms-fft-8procs")
		})
	}
}

func byteLabel(n int) string {
	switch {
	case n >= 1024:
		return itoa(n/1024) + "KB"
	default:
		return itoa(n) + "B"
	}
}

func procLabel(n int) string { return itoa(n) + "stations" }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
