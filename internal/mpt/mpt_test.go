package mpt_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"tooleval/internal/mpt"
	"tooleval/internal/mpt/tools"
	"tooleval/internal/platform"
)

func mustPlatform(t *testing.T, key string) platform.Platform {
	t.Helper()
	pf, err := platform.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func mustFactory(t *testing.T, name string) mpt.Factory {
	t.Helper()
	f, err := tools.Factory(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func forEachTool(t *testing.T, fn func(t *testing.T, name string, f mpt.Factory)) {
	t.Helper()
	for _, name := range tools.Names() {
		name := name
		f := mustFactory(t, name)
		t.Run(name, func(t *testing.T) { fn(t, name, f) })
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		payload := bytes.Repeat([]byte{0xAB}, 10_000)
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
			switch c.Rank() {
			case 0:
				if err := c.Comm.Send(1, 7, payload); err != nil {
					return nil, err
				}
				msg, err := c.Comm.Recv(1, 8)
				if err != nil {
					return nil, err
				}
				return msg.Data, nil
			default:
				msg, err := c.Comm.Recv(0, 7)
				if err != nil {
					return nil, err
				}
				return nil, c.Comm.Send(0, 8, msg.Data)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, ok := res.Value.([]byte)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload corrupted in transit (got %d bytes)", name, len(got))
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%s: elapsed = %v, want > 0", name, res.Elapsed)
		}
	})
}

func TestTagAndSourceMatching(t *testing.T) {
	pf := mustPlatform(t, "sun-atm-lan")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 3}, func(c *mpt.Ctx) (any, error) {
			switch c.Rank() {
			case 0:
				// Receive tag 2 before tag 1, even though 1 arrives first;
				// then take rank 2's message by source wildcard.
				m2, err := c.Comm.Recv(1, 2)
				if err != nil {
					return nil, err
				}
				m1, err := c.Comm.Recv(1, 1)
				if err != nil {
					return nil, err
				}
				mAny, err := c.Comm.Recv(mpt.AnySource, mpt.AnyTag)
				if err != nil {
					return nil, err
				}
				return []string{string(m2.Data), string(m1.Data), string(mAny.Data), fmt.Sprint(mAny.Src)}, nil
			case 1:
				if err := c.Comm.Send(0, 1, []byte("first")); err != nil {
					return nil, err
				}
				return nil, c.Comm.Send(0, 2, []byte("second"))
			default:
				return nil, c.Comm.Send(0, 9, []byte("third"))
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.Value.([]string)
		if got[0] != "second" || got[1] != "first" || got[2] != "third" || got[3] != "2" {
			t.Fatalf("%s: selective receive wrong: %v", name, got)
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	pf := mustPlatform(t, "alpha-fddi")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		const n = 20
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
			if c.Rank() == 0 {
				for i := 0; i < n; i++ {
					if err := c.Comm.Send(1, 5, []byte{byte(i)}); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}
			order := make([]byte, 0, n)
			for i := 0; i < n; i++ {
				msg, err := c.Comm.Recv(0, 5)
				if err != nil {
					return nil, err
				}
				order = append(order, msg.Data[0])
			}
			// Report the receive order back to rank 0 via result channel:
			// store in a closure-visible place is racy across ranks, so
			// verify here directly.
			for i := range order {
				if order[i] != byte(i) {
					return nil, fmt.Errorf("out of order: %v", order)
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = res
	})
}

func TestBcastAllToolsAllRoots(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		for root := 0; root < 4; root++ {
			root := root
			payload := []byte(fmt.Sprintf("bcast-from-%d", root))
			res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
				var in []byte
				if c.Rank() == root {
					in = payload
				}
				out, err := c.Comm.Bcast(root, 3, in)
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(out, payload) {
					return nil, fmt.Errorf("rank %d got %q, want %q", c.Rank(), out, payload)
				}
				return string(out), nil
			})
			if err != nil {
				t.Fatalf("%s root=%d: %v", name, root, err)
			}
			if res.Value.(string) != string(payload) {
				t.Fatalf("%s root=%d: rank0 value %v", name, root, res.Value)
			}
		}
	})
}

func TestGlobalSumInt64(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	for _, name := range []string{"p4", "express"} {
		f := mustFactory(t, name)
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
			vec := []int64{int64(c.Rank()), 10, int64(c.Rank() * c.Rank())}
			out, err := c.Comm.GlobalSumInt64(vec)
			if err != nil {
				return nil, err
			}
			return out, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.Value.([]int64)
		want := []int64{0 + 1 + 2 + 3, 40, 0 + 1 + 4 + 9}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sum[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestPVMGlobalSumNotAvailable(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	f := mustFactory(t, "pvm")
	_, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
		_, err := c.Comm.GlobalSumInt64([]int64{1})
		if !errors.Is(err, mpt.ErrNotSupported) {
			return nil, fmt.Errorf("GlobalSumInt64 err = %v, want ErrNotSupported", err)
		}
		_, err = c.Comm.GlobalSumFloat64([]float64{1})
		if !errors.Is(err, mpt.ErrNotSupported) {
			return nil, fmt.Errorf("GlobalSumFloat64 err = %v, want ErrNotSupported", err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSumFloat64FallsBackForPVM(t *testing.T) {
	pf := mustPlatform(t, "sun-atm-lan")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
			out, err := mpt.SumFloat64(c.Comm, []float64{float64(c.Rank()) + 0.5})
			if err != nil {
				return nil, err
			}
			return out[0], nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := res.Value.(float64), 0.5+1.5+2.5+3.5; got != want {
			t.Fatalf("%s: sum = %v, want %v", name, got, want)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	pf := mustPlatform(t, "sp1-switch")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 4}, func(c *mpt.Ctx) (any, error) {
			// Rank r computes for r*10ms; after the barrier, every rank
			// must be past the slowest rank's compute.
			c.Charge(float64(c.Rank()) * 10e-3 * c.Host.OpsPerSec)
			before := c.Now()
			if err := c.Comm.Barrier(); err != nil {
				return nil, err
			}
			after := c.Now()
			if after < before {
				return nil, fmt.Errorf("time ran backwards")
			}
			// 30ms is the slowest rank's compute time.
			if after.Seconds() < 0.030 {
				return nil, fmt.Errorf("rank %d passed barrier at %v, before slowest rank finished", c.Rank(), after)
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_ = res
	})
}

func TestDeterministicElapsed(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		run := func() ([]byte, any) {
			res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 4, Seed: 11}, func(c *mpt.Ctx) (any, error) {
				data := make([]byte, 4000)
				c.Rng.Read(data)
				next := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() + c.Size() - 1) % c.Size()
				if err := c.Comm.Send(next, 1, data); err != nil {
					return nil, err
				}
				msg, err := c.Comm.Recv(prev, 1)
				if err != nil {
					return nil, err
				}
				return msg.Data, nil
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return []byte(fmt.Sprint(res.Elapsed, res.PerRank)), res.Value
		}
		a, _ := run()
		b, _ := run()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: nondeterministic timing:\n%s\n%s", name, a, b)
		}
	})
}

func TestSelfSend(t *testing.T) {
	pf := mustPlatform(t, "alpha-fddi")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
			if c.Rank() != 0 {
				return nil, nil
			}
			if err := c.Comm.Send(0, 4, []byte("loop")); err != nil {
				return nil, err
			}
			msg, err := c.Comm.Recv(0, 4)
			if err != nil {
				return nil, err
			}
			return string(msg.Data), nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Value.(string) != "loop" {
			t.Fatalf("%s: self-send got %v", name, res.Value)
		}
	})
}

func TestSendValidation(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		_, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
			if c.Rank() == 0 {
				if err := c.Comm.Send(99, 0, nil); err == nil {
					return nil, fmt.Errorf("send to rank 99 should fail")
				}
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

func TestZeroByteMessages(t *testing.T) {
	pf := mustPlatform(t, "sun-atm-lan")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		_, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
			if c.Rank() == 0 {
				return nil, c.Comm.Send(1, 0, nil)
			}
			msg, err := c.Comm.Recv(0, 0)
			if err != nil {
				return nil, err
			}
			if len(msg.Data) != 0 {
				return nil, fmt.Errorf("zero-byte message carried %d bytes", len(msg.Data))
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

func TestLargeMessageAllTools(t *testing.T) {
	pf := mustPlatform(t, "sun-ethernet")
	forEachTool(t, func(t *testing.T, name string, f mpt.Factory) {
		payload := make([]byte, 64*1024)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		res, err := mpt.Run(pf, f, mpt.RunConfig{Procs: 2}, func(c *mpt.Ctx) (any, error) {
			if c.Rank() == 0 {
				if err := c.Comm.Send(1, 1, payload); err != nil {
					return nil, err
				}
				return nil, nil
			}
			msg, err := c.Comm.Recv(0, 1)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(msg.Data, payload) {
				return nil, fmt.Errorf("64KB payload corrupted")
			}
			return nil, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Elapsed.Milliseconds() < 10 {
			t.Fatalf("%s: 64KB over Ethernet in %v — faster than the wire allows", name, res.Elapsed)
		}
	})
}

// Property: codec round-trips.
func TestPropertyCodecRoundTrips(t *testing.T) {
	if err := quick.Check(func(v []int64) bool {
		got, err := mpt.DecodeInt64s(mpt.EncodeInt64s(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(v []float64) bool {
		got, err := mpt.DecodeFloat64s(mpt.EncodeFloat64s(v))
		if err != nil || len(got) != len(v) {
			return false
		}
		for i := range v {
			if got[i] != v[i] && !(v[i] != v[i] && got[i] != got[i]) { // NaN-safe
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: XDR opaque round-trips and pads to 4-byte alignment.
func TestPropertyXDRRoundTrip(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		enc := mpt.AppendXDROpaque(nil, data)
		if len(enc)%4 != 0 {
			return false
		}
		if len(enc) != mpt.XDROpaqueSize(len(data)) {
			return false
		}
		dec, err := mpt.XDROpaqueDecode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXDRDecodeErrors(t *testing.T) {
	if _, err := mpt.XDROpaqueDecode([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should error")
	}
	if _, err := mpt.XDROpaqueDecode([]byte{0, 0, 0, 99, 1, 2, 3, 4}); err == nil {
		t.Fatal("truncated payload should error")
	}
}

func TestDecodeLengthValidation(t *testing.T) {
	if _, err := mpt.DecodeInt64s(make([]byte, 7)); err == nil {
		t.Fatal("non-multiple-of-8 int64 payload should error")
	}
	if _, err := mpt.DecodeFloat64s(make([]byte, 9)); err == nil {
		t.Fatal("non-multiple-of-8 float64 payload should error")
	}
}
