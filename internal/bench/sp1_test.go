package bench

import (
	"testing"
)

// The SP-1 appears twice in §3.1: "the evaluation ... is performed on
// the Allnode switch and the dedicated Ethernet". These tests cover the
// second configuration, which none of the published figures show.

func TestSP1SwitchBeatsItsEthernet(t *testing.T) {
	sw := getPlatform(t, "sp1-switch")
	eth := getPlatform(t, "sp1-ethernet")
	for _, tool := range []string{"p4", "pvm", "express"} {
		s, err := sharedH.PingPong(bgCtx, sw.Key, tool, []int{64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		e, err := sharedH.PingPong(bgCtx, eth.Key, tool, []int{64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if !(s[0] < e[0]/2) {
			t.Fatalf("%s: Allnode (%f ms) should crush the dedicated Ethernet (%f ms) at 64KB", tool, s[0], e[0])
		}
	}
}

func TestSP1DedicatedEthernetBeatsSharedForRings(t *testing.T) {
	// Dedicated (switched) segments avoid the shared-medium serialization:
	// the 4-station ring should be faster than on the shared SUN segment,
	// even net of the CPU difference, for the wire-bound p4 case.
	ded := getPlatform(t, "sp1-ethernet")
	shared := getPlatform(t, "sun-ethernet")
	d, err := sharedH.Ring(bgCtx, ded.Key, "p4", 4, []int{32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sharedH.Ring(bgCtx, shared.Key, "p4", 4, []int{32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !(d[0] < s[0]) {
		t.Fatalf("dedicated ring (%f ms) should beat shared ring (%f ms)", d[0], s[0])
	}
}

func TestSP1AppsRunOnBothFabrics(t *testing.T) {
	for _, pfKey := range []string{"sp1-switch", "sp1-ethernet"} {
		pf := getPlatform(t, pfKey)
		s, err := sharedH.RunAPL(bgCtx, pf.Key, "pvm", "jpeg", []int{1, 4}, 0.15)
		if err != nil {
			t.Fatalf("%s: %v", pfKey, err)
		}
		if !(s.Seconds[1] < s.Seconds[0]) {
			t.Fatalf("%s: jpeg should speed up 1->4 procs: %v", pfKey, s.Seconds)
		}
	}
}
