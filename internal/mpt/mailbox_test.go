package mpt

import (
	"testing"
	"time"

	"tooleval/internal/sim"
)

func TestMailboxMatchBeforeWait(t *testing.T) {
	eng := sim.NewEngine()
	box := NewMailbox(eng)
	var got *Message
	eng.Spawn("r", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // message arrives first
		got = box.Get(p, 3, 7)
	})
	eng.Spawn("s", func(p *sim.Proc) {
		box.Put(&Message{Src: 3, Tag: 7, Data: []byte("x")})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got.Data) != "x" {
		t.Fatalf("got %+v", got)
	}
}

func TestMailboxWaiterWokenByMatch(t *testing.T) {
	eng := sim.NewEngine()
	box := NewMailbox(eng)
	var got *Message
	eng.Spawn("r", func(p *sim.Proc) {
		got = box.Get(p, AnySource, 9) // waits
	})
	eng.Spawn("s", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		box.Put(&Message{Src: 1, Tag: 8}) // non-matching: queued
		box.Put(&Message{Src: 2, Tag: 9}) // matching: wakes waiter
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Src != 2 {
		t.Fatalf("got %+v", got)
	}
	if box.Len() != 1 {
		t.Fatalf("non-matching message should remain queued, Len=%d", box.Len())
	}
}

func TestMailboxMultipleWaitersFIFO(t *testing.T) {
	eng := sim.NewEngine()
	box := NewMailbox(eng)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("r", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // deterministic wait order
			box.Get(p, AnySource, AnyTag)
			order = append(order, i)
		})
	}
	eng.Spawn("s", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		for k := 0; k < 3; k++ {
			box.Put(&Message{Src: k, Tag: 0})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order %v, want [0 1 2]", order)
	}
}

func TestMailboxSelectiveWaitersSkipped(t *testing.T) {
	eng := sim.NewEngine()
	box := NewMailbox(eng)
	var tagged, wild *Message
	eng.Spawn("tagged", func(p *sim.Proc) {
		tagged = box.Get(p, AnySource, 5)
	})
	eng.Spawn("wild", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		wild = box.Get(p, AnySource, AnyTag)
	})
	eng.Spawn("s", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		box.Put(&Message{Src: 0, Tag: 3}) // skips "tagged", matches "wild"
		box.Put(&Message{Src: 0, Tag: 5}) // matches "tagged"
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if wild == nil || wild.Tag != 3 {
		t.Fatalf("wildcard waiter got %+v", wild)
	}
	if tagged == nil || tagged.Tag != 5 {
		t.Fatalf("tagged waiter got %+v", tagged)
	}
}
