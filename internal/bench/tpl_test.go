package bench

import (
	"testing"

	"tooleval/internal/platform"
)

func getPlatform(t *testing.T, key string) platform.Platform {
	t.Helper()
	pf, err := platform.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// mean of a slice, for ranking comparisons.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestPingPongOrderingEthernet(t *testing.T) {
	pf := getPlatform(t, "sun-ethernet")
	sizes := []int{16 << 10, 64 << 10}
	res := map[string]float64{}
	for _, tool := range []string{"p4", "pvm", "express"} {
		ms, err := sharedH.PingPong(bgCtx, pf.Key, tool, sizes)
		if err != nil {
			t.Fatal(err)
		}
		res[tool] = mean(ms)
	}
	// Table 4, SUN/Ethernet snd/rcv: p4 < PVM < Express.
	if !(res["p4"] < res["pvm"] && res["pvm"] < res["express"]) {
		t.Fatalf("snd/rcv ordering wrong: %v", res)
	}
}

func TestPingPongCrossoverOnATM(t *testing.T) {
	// The paper: "Express performs a little better than PVM for small
	// message sizes (upto 1 Kbytes) but PVM outperforms Express for large
	// messages" (ATM).
	pf := getPlatform(t, "sun-atm-lan")
	small, err := sharedH.PingPong(bgCtx, pf.Key, "express", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	smallPVM, err := sharedH.PingPong(bgCtx, pf.Key, "pvm", []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !(small[0] < smallPVM[0]) {
		t.Fatalf("at 0KB Express (%f) should beat PVM (%f)", small[0], smallPVM[0])
	}
	large, err := sharedH.PingPong(bgCtx, pf.Key, "express", []int{64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	largePVM, err := sharedH.PingPong(bgCtx, pf.Key, "pvm", []int{64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !(large[0] > largePVM[0]) {
		t.Fatalf("at 64KB PVM (%f) should beat Express (%f)", largePVM[0], large[0])
	}
}

func TestBroadcastOrderingEthernet(t *testing.T) {
	// Table 4, SUN/Ethernet broadcast: p4 < PVM < Express ("p4 has the
	// best performance while Express has the worst", Fig 2).
	pf := getPlatform(t, "sun-ethernet")
	sizes := []int{16 << 10, 64 << 10}
	res := map[string]float64{}
	for _, tool := range []string{"p4", "pvm", "express"} {
		ms, err := sharedH.Broadcast(bgCtx, pf.Key, tool, 4, sizes)
		if err != nil {
			t.Fatal(err)
		}
		res[tool] = mean(ms)
	}
	if !(res["p4"] < res["pvm"] && res["pvm"] < res["express"]) {
		t.Fatalf("broadcast ordering wrong: %v", res)
	}
}

func TestRingOrderingEthernet(t *testing.T) {
	// Table 4, SUN/Ethernet ring: p4 < Express < PVM — the inversion the
	// paper highlights ("Express outperforms PVM for ring communication").
	pf := getPlatform(t, "sun-ethernet")
	sizes := []int{32 << 10, 64 << 10}
	res := map[string]float64{}
	for _, tool := range []string{"p4", "pvm", "express"} {
		ms, err := sharedH.Ring(bgCtx, pf.Key, tool, 4, sizes)
		if err != nil {
			t.Fatal(err)
		}
		res[tool] = mean(ms)
	}
	t.Logf("ring Ethernet 4 procs: %v", res)
	if !(res["p4"] < res["express"]) {
		t.Fatalf("ring: p4 (%f) should beat Express (%f)", res["p4"], res["express"])
	}
	if !(res["express"] < res["pvm"]) {
		t.Fatalf("ring: Express (%f) should beat PVM (%f): %v", res["express"], res["pvm"], res)
	}
}

func TestRingOrderingATMWAN(t *testing.T) {
	// Table 4, SUN/ATM ring: p4 < PVM.
	pf := getPlatform(t, "sun-atm-wan")
	sizes := []int{32 << 10, 64 << 10}
	p4ms, err := sharedH.Ring(bgCtx, pf.Key, "p4", 4, sizes)
	if err != nil {
		t.Fatal(err)
	}
	pvmms, err := sharedH.Ring(bgCtx, pf.Key, "pvm", 4, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !(mean(p4ms) < mean(pvmms)) {
		t.Fatalf("ring ATM: p4 (%f) should beat PVM (%f)", mean(p4ms), mean(pvmms))
	}
}

func TestGlobalSumOrderingEthernet(t *testing.T) {
	// Fig 4 / Table 4: p4 < Express; PVM not available.
	pf := getPlatform(t, "sun-ethernet")
	lens := []int{25_000, 100_000}
	p4ms, err := sharedH.GlobalSum(bgCtx, pf.Key, "p4", 4, lens)
	if err != nil {
		t.Fatal(err)
	}
	exms, err := sharedH.GlobalSum(bgCtx, pf.Key, "express", 4, lens)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("global sum p4=%v express=%v", p4ms, exms)
	if !(mean(p4ms) < mean(exms)) {
		t.Fatalf("global sum: p4 (%f) should beat Express (%f)", mean(p4ms), mean(exms))
	}
	if _, err := sharedH.GlobalSum(bgCtx, pf.Key, "pvm", 4, []int{100}); err == nil {
		t.Fatal("PVM global sum should fail (Not Available in Table 1)")
	}
}

func TestATMBeatsEthernetLargeMessages(t *testing.T) {
	// "significant improvement in throughput when ATM networks are used".
	eth := getPlatform(t, "sun-ethernet")
	atm := getPlatform(t, "sun-atm-lan")
	for _, tool := range []string{"p4", "pvm", "express"} {
		e, err := sharedH.PingPong(bgCtx, eth.Key, tool, []int{64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		a, err := sharedH.PingPong(bgCtx, atm.Key, tool, []int{64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if !(a[0] < e[0]/1.5) {
			t.Fatalf("%s: ATM (%f ms) should be well under Ethernet (%f ms) at 64KB", tool, a[0], e[0])
		}
	}
}

func TestWANComparableToLAN(t *testing.T) {
	// "ATM WAN performance of send/receive primitives is similar to those
	// of ATM LAN" — the paper's WAN-feasibility claim.
	lan := getPlatform(t, "sun-atm-lan")
	wan := getPlatform(t, "sun-atm-wan")
	for _, tool := range []string{"p4", "pvm"} {
		l, err := sharedH.PingPong(bgCtx, lan.Key, tool, []int{16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		w, err := sharedH.PingPong(bgCtx, wan.Key, tool, []int{16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		ratio := w[0] / l[0]
		if ratio < 0.9 || ratio > 1.35 {
			t.Fatalf("%s: WAN/LAN ratio = %.2f, want ~1 (paper: similar)", tool, ratio)
		}
	}
}

func TestPingPongMonotonicInSize(t *testing.T) {
	for _, key := range []string{"sun-ethernet", "sun-atm-lan"} {
		pf := getPlatform(t, key)
		for _, tool := range []string{"p4", "pvm", "express"} {
			ms, err := sharedH.PingPong(bgCtx, pf.Key, tool, StandardSizes())
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(ms); i++ {
				if ms[i] < ms[i-1] {
					t.Fatalf("%s/%s: time decreased from %f to %f at size index %d", key, tool, ms[i-1], ms[i], i)
				}
			}
		}
	}
}

// A platform or tool the harness cannot resolve fails the sweep before
// any cell is scheduled, so the error is never memoized.
func TestSweepRejectsUnknownNamesUpFront(t *testing.T) {
	h := freshHarness(1)
	if _, err := h.PingPong(bgCtx, "no-such-platform", "p4", []int{0}); err == nil {
		t.Fatal("PingPong on an unknown platform succeeded")
	}
	if _, err := h.Ring(bgCtx, "sun-ethernet", "no-such-tool", 4, []int{0}); err == nil {
		t.Fatal("Ring with an unknown tool succeeded")
	}
	if st := h.Executor().Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("rejected sweeps touched the cache: %+v", st)
	}
}
