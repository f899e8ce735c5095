package someip

import (
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// sdRing builds n platforms, each offering its own service instance and
// finding its ring successor's, runs the SD startup phase, and returns
// the control-plane fan-out (datagrams routed through multicast/topic
// membership lists).
func sdRing(t *testing.T, n int) uint64 {
	t.Helper()
	k := des.NewKernel(7)
	net := simnet.NewNetwork(k, simnet.Config{})
	agents := make([]*Agent, n)
	for i := 0; i < n; i++ {
		h := net.AddHost("plat", nil)
		a, err := NewAgent(h, AgentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		ep := h.MustBind(40000)
		key := ServiceKey{Service: ServiceID(0x1000 + i), Instance: 1}
		k.At(0, func() { a.Offer(key, 1, 0, ep.Addr()) })
	}
	found := 0
	for i := 0; i < n; i++ {
		i := i
		key := ServiceKey{Service: ServiceID(0x1000 + (i+1)%n), Instance: 1}
		k.At(logical.Time(logical.Millisecond), func() {
			agents[i].Find(key, func(RemoteService) { found++ })
		})
	}
	// Cover startup plus one cyclic offer round (period 1s).
	k.Run(logical.Time(1500 * logical.Millisecond))
	if found != n {
		t.Fatalf("n=%d: %d services discovered", n, found)
	}
	_, fanout := net.ControlPlane()
	return fanout
}

// The city-scale gate requires the SD control plane to be sub-quadratic
// in the platform count. With interest-based routing each offer reaches
// only its (single) interested consumer and each find only its (single)
// provider, so doubling the platforms should roughly double the
// fan-out — under all-pairs multicast it would quadruple.
func TestSDControlPlaneSubQuadratic(t *testing.T) {
	n1, n2 := 40, 80
	f1 := sdRing(t, n1)
	f2 := sdRing(t, n2)
	if f1 == 0 || f2 == 0 {
		t.Fatalf("no control-plane traffic measured (%d, %d)", f1, f2)
	}
	// Allow slack over perfectly linear growth, but reject anything
	// approaching the 4x of quadratic fan-out.
	if float64(f2) > 2.5*float64(f1) {
		t.Errorf("fan-out grew %d -> %d (%.2fx for 2x platforms): super-linear", f1, f2, float64(f2)/float64(f1))
	}
	// And the absolute count stays far below the all-pairs floor: every
	// startup offer alone used to cost (n-1) datagrams, i.e. >= n*(n-1)
	// for the offer wave.
	if f2 >= uint64(n2*(n2-1)) {
		t.Errorf("fan-out %d at n=%d is still all-pairs scale", f2, n2)
	}
}

// An offer nobody declared interest in is not encoded, yet it still
// takes a session ID and counts as a control-plane send, so session IDs
// and the ctrlSends diagnostics match an encoded send.
func TestOfferWithoutInterestSkipsEncoding(t *testing.T) {
	f := newSDFixture(t)
	appEp := f.h1.MustBind(40000)
	f.k.At(0, func() { f.a1.Offer(testKey, 1, 0, appEp.Addr()) })
	f.k.Run(logical.Time(logical.Millisecond))
	if sends, fanout := f.net.ControlPlane(); sends != 1 || fanout != 0 {
		t.Fatalf("after an unheard offer: ctrl sends=%d fanout=%d, want 1 and 0", sends, fanout)
	}
	if f.a1.session != 1 {
		t.Fatalf("session after an unheard offer = %d, want 1", f.a1.session)
	}
	off := f.a1.offers[testKey]
	if avg := testing.AllocsPerRun(10, func() { f.a1.announceTopic(off) }); avg != 0 {
		t.Errorf("unheard offer allocates %.1f per send, want 0 (not encoded)", avg)
	}
	// 1 + 11 unheard sends so far; the next, heard one is session 13.
	f.a2.Interest(testKey)
	// Cyclic offers are daemon events; a plain event keeps Run going.
	f.k.At(logical.Time(1500*logical.Millisecond), func() {})
	f.k.Run(logical.Time(1500 * logical.Millisecond))
	if _, ok := f.a2.Lookup(testKey); !ok {
		t.Fatal("cyclic offer not received after Interest")
	}
	if f.a1.session != 13 {
		t.Errorf("session after the heard cyclic offer = %d, want 13", f.a1.session)
	}
	if sends, fanout := f.net.ControlPlane(); sends != 13 || fanout != 1 {
		t.Errorf("ctrl sends=%d fanout=%d, want 13 and 1", sends, fanout)
	}
}
