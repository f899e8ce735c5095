package simnet

import (
	"testing"

	"repro/internal/des"
)

// BenchmarkSimnetDeliver measures one datagram's schedule+fire round
// trip through the network: route, fault verdict, pooled carrier in a
// pooled kernel event, delivery to a receive callback. The payload is
// empty so the benchmark isolates the delivery machinery from the
// caller's payload copy. 0 allocs/op in steady state, pinned by the
// repo-root TestTransientPathZeroAlloc.
func BenchmarkSimnetDeliver(b *testing.B) {
	k := des.NewKernel(1)
	n := NewNetwork(k, Config{})
	src := n.AddHost("src", nil)
	dst := n.AddHost("dst", nil)
	from, err := src.Bind(1000)
	if err != nil {
		b.Fatal(err)
	}
	to, err := dst.Bind(2000)
	if err != nil {
		b.Fatal(err)
	}
	received := 0
	to.OnReceive(func(Datagram) { received++ })
	// Warm the event and carrier pools.
	from.Send(to.Addr(), nil)
	k.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from.Send(to.Addr(), nil)
		k.RunAll()
	}
	b.StopTimer()
	if received != b.N+1 {
		b.Fatalf("delivered %d of %d", received, b.N+1)
	}
}
