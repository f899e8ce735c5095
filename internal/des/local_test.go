package des

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/logical"
)

// localChain is a self-rescheduling local event chain: each step records
// what it observed and schedules the next one, plus one closure event.
type localChain struct {
	k     *Kernel
	steps int
	// local records LocalFiring for every chain step and every closure
	// event a step scheduled, in firing order.
	local []bool
	// bounds records NextEmitTime as seen from inside each step.
	bounds []string
}

func localChainStep(a any) {
	c := a.(*localChain)
	c.local = append(c.local, c.k.LocalFiring())
	t, ok := c.k.NextEmitTime()
	c.bounds = append(c.bounds, fmt.Sprintf("%d/%v", int64(t), ok))
	c.steps--
	if c.steps == 0 {
		return
	}
	c.k.AtTransient(c.k.Now(), func() { c.local = append(c.local, c.k.LocalFiring()) })
	c.k.AfterTransientFn(10, localChainStep, c)
}

// A chain started with AtLocalFn carries the local mark through every
// event it schedules, stays out of a tracked kernel's earliest-emit
// bound, and may not send on a federation channel.
func TestAtLocalFnChain(t *testing.T) {
	k := NewKernel(1)
	k.TrackEmit()
	c := &localChain{k: k, steps: 7}
	k.AtLocalFn(10, localChainStep, c)
	var boundAt50 []bool
	k.At(50, func() { boundAt50 = append(boundAt50, k.LocalFiring()) })

	if at, ok := k.NextEventTime(); !ok || at != 10 {
		t.Fatalf("NextEventTime = %v/%v, want 10/true", at, ok)
	}
	if at, ok := k.NextEmitTime(); !ok || at != 50 {
		t.Fatalf("NextEmitTime = %v/%v, want the non-local event at 50", at, ok)
	}
	k.RunAll()

	// Steps at 10..70 each see the non-local event at 50 as the bound
	// until it has fired, then no bound at all: the chain never counts.
	want := []string{"50/true", "50/true", "50/true", "50/true", "0/false", "0/false", "0/false"}
	if strings.Join(c.bounds, " ") != strings.Join(want, " ") {
		t.Fatalf("NextEmitTime inside the chain = %v, want %v", c.bounds, want)
	}
	if len(c.local) != 7+6 {
		t.Fatalf("observed %d chain events, want %d", len(c.local), 7+6)
	}
	for i, local := range c.local {
		if !local {
			t.Fatalf("chain event %d fired without the local mark", i)
		}
	}
	if len(boundAt50) != 1 || boundAt50[0] {
		t.Fatalf("the plain event at 50 fired with local=%v, want one non-local firing", boundAt50)
	}
	if k.LocalFiring() {
		t.Fatal("local mark leaked out of Run")
	}
}

// Channel.Send panics from inside a local chain, including from an
// event the chain scheduled, and works from a plain event.
func TestAtLocalFnChainCannotSend(t *testing.T) {
	f := NewFederation(1, 2)
	ch := f.Channel(0, 1, logical.Millisecond)
	k := f.Kernel(0)
	var panics []string
	send := func() {
		defer func() {
			if r := recover(); r != nil {
				panics = append(panics, fmt.Sprint(r))
			}
		}()
		ch.Send(k.Now().Add(logical.Millisecond), func() {})
	}
	k.AtLocalFn(0, func(any) {
		send()
		k.AfterTransient(5, send)
	}, nil)
	k.At(20, send)
	f.RunAll()

	if len(panics) != 2 {
		t.Fatalf("%d sends panicked, want the 2 from the local chain: %q", len(panics), panics)
	}
	for _, msg := range panics {
		if !strings.Contains(msg, "local-marked") {
			t.Fatalf("panic %q does not name the local mark", msg)
		}
	}
	if ch.Sent() != 1 {
		t.Fatalf("channel carried %d messages, want 1 from the plain event", ch.Sent())
	}
}
