package pvm

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"tooleval/internal/mpt"
	"tooleval/internal/platform"
	"tooleval/internal/sim"
)

// runPVM runs body over a PVM instance with par and returns the tool
// for its counters.
func runPVM(t *testing.T, par Params, cfg mpt.RunConfig, body mpt.Body) (*Tool, *mpt.RunResult) {
	t.Helper()
	pf, err := platform.Get("sun-ethernet")
	if err != nil {
		t.Fatal(err)
	}
	var tool *Tool
	res, err := mpt.Run(pf, func(env *mpt.Env) (mpt.Tool, error) {
		tool, err = NewWithParams(env, par)
		return tool, err
	}, cfg, body)
	if err != nil {
		t.Fatal(err)
	}
	return tool, res
}

// TestBcastResultsAreIndependent: the daemon shares one encoded frame
// across every multicast destination, so each receiver's result must be
// its own unpacked copy — a receiver that writes into its result cannot
// disturb the other receivers or the root.
func TestBcastResultsAreIndependent(t *testing.T) {
	want := make([]byte, 9_000)
	for i := range want {
		want[i] = byte(i%251 + 1)
	}
	for _, direct := range []bool{false, true} {
		par := DefaultParams()
		par.RouteDirect = direct
		runPVM(t, par, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
			var data []byte
			if c.Rank() == 0 {
				data = slices.Clone(want)
			}
			got, err := c.Comm.Bcast(0, 3, data)
			if err != nil {
				return nil, err
			}
			if c.Rank() == 1 {
				for i := range got {
					got[i] = 0
				}
			}
			if err := c.Comm.Barrier(); err != nil {
				return nil, err
			}
			if c.Rank() != 1 && !bytes.Equal(got, want) {
				return nil, fmt.Errorf("direct=%v: rank %d result changed after rank 1 wrote into its own", direct, c.Rank())
			}
			return nil, nil
		})
	}
}

// TestFragmentedRetransmitReassemblesExactly sends a message that is
// neither a multiple of 4 (so XDR pads it) nor of FragBytes (so the
// final fragment is short) through an outage that forces the fragment
// protocol to retransmit; the reassembled payload must be byte-exact.
func TestFragmentedRetransmitReassemblesExactly(t *testing.T) {
	want := make([]byte, 64<<10+3)
	for i := range want {
		want[i] = byte(i*31 + i>>8)
	}
	outage := func(now sim.Time, src, dst int) bool {
		return now >= sim.Time(20*time.Millisecond) && now < sim.Time(45*time.Millisecond)
	}
	tool, _ := runPVM(t, DefaultParams(), mpt.RunConfig{Procs: 2, Faults: outage}, func(c *mpt.Ctx) (any, error) {
		if c.Rank() == 0 {
			return nil, c.Comm.Send(1, 9, want)
		}
		msg, err := c.Comm.Recv(0, 9)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(msg.Data, want) {
			return nil, fmt.Errorf("reassembled %d bytes differ from the %d sent", len(msg.Data), len(want))
		}
		return nil, nil
	})
	st := tool.Stats()
	if st.Retransmits == 0 {
		t.Fatal("the outage forced no retransmission; the test no longer exercises it")
	}
	if st.DroppedMsgs != 0 {
		t.Fatalf("dropped %d messages", st.DroppedMsgs)
	}
	for _, d := range tool.daemons {
		if d.badFrags != 0 {
			t.Fatalf("%v rejected %d well-formed fragments", d, d.badFrags)
		}
	}
}
