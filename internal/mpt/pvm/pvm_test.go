package pvm

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"tooleval/internal/mpt"
	"tooleval/internal/platform"
	"tooleval/internal/sim"
)

func newTestEnv(t *testing.T, n int) *mpt.Env {
	t.Helper()
	pf, err := platform.Get("sun-ethernet")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	env, err := mpt.NewEnv(eng, pf.NewNetwork(n), pf.NewLoopback(n), pf.Host, n)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestParamValidation(t *testing.T) {
	env := newTestEnv(t, 2)
	bad := DefaultParams()
	bad.FragBytes = 0
	if _, err := NewWithParams(env, bad); err == nil {
		t.Fatal("zero FragBytes should be rejected")
	}
	bad = DefaultParams()
	bad.Window = 0
	if _, err := NewWithParams(env, bad); err == nil {
		t.Fatal("zero Window should be rejected")
	}
}

func TestEnvelopeRouteRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	xlen := mpt.XDROpaqueSize(len(payload))
	hdr := routeHeader(3, 7, -42, xlen)
	if len(hdr) != routeHeaderLen || cap(hdr) != routeHeaderLen+xlen {
		t.Fatalf("header len %d cap %d, want %d and %d", len(hdr), cap(hdr), routeHeaderLen, routeHeaderLen+xlen)
	}
	enc := mpt.AppendXDROpaque(hdr, payload)
	if &enc[0] != &hdr[0] {
		t.Fatal("appending the payload reallocated the route buffer")
	}
	if enc[0] != kindRoute {
		t.Fatalf("kind = %d", enc[0])
	}
	// Decode as the daemon does.
	if src := binary.BigEndian.Uint32(enc[1:]); src != 3 {
		t.Fatalf("src = %d", src)
	}
	if dst := binary.BigEndian.Uint32(enc[5:]); dst != 7 {
		t.Fatalf("dst = %d", dst)
	}
	if tag := bitsTag(binary.BigEndian.Uint32(enc[9:])); tag != -42 {
		t.Fatalf("tag = %d", tag)
	}
	paylen := int(binary.BigEndian.Uint32(enc[13:]))
	got, err := mpt.XDROpaqueDecode(enc[routeHeaderLen : routeHeaderLen+paylen])
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload = %v, %v; want %v", got, err, payload)
	}
}

func TestEnvelopeTagBitsNegative(t *testing.T) {
	for _, tag := range []int{-1, -100, 0, 7, 1 << 20} {
		if got := bitsTag(tagBits(tag)); got != tag {
			t.Fatalf("tag %d round-tripped to %d", tag, got)
		}
	}
}

func TestFragEncodingRoundTrip(t *testing.T) {
	prop := func(msgid uint32, fragRaw, nfragsRaw uint8, chunk []byte) bool {
		frag := int(fragRaw)
		nfrags := int(nfragsRaw) + 1
		enc := encodeFrag(msgid, frag, nfrags, 1, 2, -5, chunk)
		if enc[0] != kindFrag {
			return false
		}
		gotID := uint32(enc[1])<<24 | uint32(enc[2])<<16 | uint32(enc[3])<<8 | uint32(enc[4])
		gotFrag := int(enc[5])<<8 | int(enc[6])
		gotN := int(enc[7])<<8 | int(enc[8])
		return gotID == msgid && gotFrag == frag && gotN == nfrags && bytes.Equal(enc[25:], chunk)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAckAndTimeoutEncoding(t *testing.T) {
	ack := encodeAck(99, 3)
	if ack[0] != kindAck || len(ack) != 7 {
		t.Fatalf("ack = %v", ack)
	}
	to := encodeTimeout(99, 3)
	if to[0] != kindTimeout || len(to) != 7 {
		t.Fatalf("timeout = %v", to)
	}
}

func TestDirectRouteSkipsDaemons(t *testing.T) {
	env := newTestEnv(t, 2)
	par := DefaultParams()
	par.RouteDirect = true
	tool, err := NewWithParams(env, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(tool.daemons) != 0 {
		t.Fatalf("direct route spawned %d daemons", len(tool.daemons))
	}
	var got []byte
	env.Eng.Spawn("r0", func(p *sim.Proc) {
		c := tool.NewComm(p, 0)
		if err := c.Send(1, 1, []byte("direct")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	env.Eng.Spawn("r1", func(p *sim.Proc) {
		c := tool.NewComm(p, 1)
		msg, err := c.Recv(0, 1)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got = msg.Data
	})
	if err := env.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "direct" {
		t.Fatalf("got %q", got)
	}
}

func TestDaemonRouteStats(t *testing.T) {
	env := newTestEnv(t, 2)
	tool, err := NewWithParams(env, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	env.Eng.Spawn("r0", func(p *sim.Proc) {
		c := tool.NewComm(p, 0)
		if err := c.Send(1, 1, make([]byte, 20_000)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	env.Eng.Spawn("r1", func(p *sim.Proc) {
		c := tool.NewComm(p, 1)
		if _, err := c.Recv(0, 1); err != nil {
			t.Errorf("recv: %v", err)
		}
	})
	if err := env.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := tool.Stats()
	if st.Sends != 1 {
		t.Fatalf("Sends = %d", st.Sends)
	}
	// 20 KB at 4080-byte fragments = 5 fragments, each acked.
	if st.Acks != 5 {
		t.Fatalf("Acks = %d, want 5", st.Acks)
	}
	if st.DroppedMsgs != 0 || st.Retransmits != 0 {
		t.Fatalf("unexpected drops/retransmits on idle network: %+v", st)
	}
}

func TestDirectStillSlowerThanP4WouldBe(t *testing.T) {
	// Even with RouteDirect, the XDR pack/unpack keeps PVM above zero
	// software cost: a 64KB one-way must still take > wire time.
	env := newTestEnv(t, 2)
	par := DefaultParams()
	par.RouteDirect = true
	tool, err := NewWithParams(env, par)
	if err != nil {
		t.Fatal(err)
	}
	var elapsed sim.Time
	env.Eng.Spawn("r0", func(p *sim.Proc) {
		c := tool.NewComm(p, 0)
		if err := c.Send(1, 1, make([]byte, 64<<10)); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	env.Eng.Spawn("r1", func(p *sim.Proc) {
		c := tool.NewComm(p, 1)
		if _, err := c.Recv(0, 1); err != nil {
			t.Errorf("recv: %v", err)
		}
		elapsed = p.Now()
	})
	if err := env.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	wireMs := 54.0 // 64KB on 10 Mbit/s with framing
	if elapsed.Milliseconds() < wireMs {
		t.Fatalf("one-way %v ms beats the wire (%v ms) — impossible", elapsed.Milliseconds(), wireMs)
	}
}

// TestDaemonDropsMalformedFragments: a frame that fails validation is
// counted and dropped before the daemon acknowledges it or touches any
// reassembly state — it never panics or lands in another message.
func TestDaemonDropsMalformedFragments(t *testing.T) {
	env := newTestEnv(t, 2)
	tool, err := NewWithParams(env, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d := tool.daemons[1]
	fb := tool.par.FragBytes
	full := make([]byte, fb)
	// An open three-fragment stream from task 0.
	first := encodeFrag(5, 0, 3, 0, 1, 2, full)
	h, chunk, err := decodeFrag(first, fb)
	if err != nil {
		t.Fatal(err)
	}
	d.assembling[5] = newInStream(h, chunk, fb)
	d.assembling[5].add(h.frag, chunk, fb)

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated header", first[:fragHeaderLen-1]},
		{"overrunning chunk length", first[:len(first)-1]},
		{"frag past nfrags", encodeFrag(6, 3, 3, 0, 1, 2, full)},
		{"short middle chunk", encodeFrag(6, 0, 3, 0, 1, 2, full[:10])},
		{"oversized final", encodeFrag(6, 2, 3, 0, 1, 2, append(full, 0))},
		{"nfrags disagrees", encodeFrag(5, 1, 4, 0, 1, 2, full)},
		{"tag disagrees", encodeFrag(5, 1, 3, 0, 1, 9, full)},
		{"other station", encodeFrag(6, 0, 1, 0, 0, 2, nil)},
	} {
		before := d.badFrags
		d.handleFrag(&mpt.Message{Src: 0, Tag: kindFrag, Data: tc.frame})
		if d.badFrags != before+1 {
			t.Errorf("%s: not counted as malformed", tc.name)
		}
	}
	if d.acks != 0 || len(d.assembling) != 1 || d.assembling[5].count != 1 {
		t.Fatalf("malformed frames changed daemon state: acks=%d %v", d.acks, d)
	}
}
