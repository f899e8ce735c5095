package des

import (
	"testing"

	"repro/internal/logical"
)

// The kernel hot-path microbenchmark suite. Each benchmark isolates one
// of the converted closure-free paths; the repo-root alloc gate
// (TestTransientPathZeroAlloc) pins the 0 allocs/op claims.

// benchChain is the carrier of the self-rescheduling closure-free chain:
// the (fn, arg) analogue of BenchmarkKernelScheduleTransient's closure.
type benchChain struct {
	k     *Kernel
	count int
	n     int
}

func benchChainFn(a any) {
	c := a.(*benchChain)
	c.count++
	if c.count < c.n {
		c.k.AfterTransientFn(1, benchChainFn, c)
	}
}

// BenchmarkKernelFire measures the closure-free schedule+fire round
// trip: one pooled event per op, carrying a package-level fn and a live
// carrier pointer — the form every converted hot path uses. 0 allocs/op.
func BenchmarkKernelFire(b *testing.B) {
	k := NewKernel(1)
	c := &benchChain{k: k, n: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	k.AtTransientFn(0, benchChainFn, c)
	k.RunAll()
}

// BenchmarkProcessSwitch measures one sleep/wake cycle of a process:
// schedule the wake (reusing the process's own Event structure), hand
// the baton to the kernel, fire, hand it back.
func BenchmarkProcessSwitch(b *testing.B) {
	k := NewKernel(1)
	k.Spawn("switcher", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Sleep(logical.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.RunAll()
}

// BenchmarkMailboxTimedPut measures a timed put delivered and drained:
// the value rides a pooled carrier in a pooled event (see putArg), and
// the mailbox ring reuses its backing array. 0 allocs/op in steady
// state.
func BenchmarkMailboxTimedPut(b *testing.B) {
	k := NewKernel(1)
	m := NewMailbox[int](k, "bench")
	m.PutAfter(logical.Microsecond, 0)
	k.RunAll()
	m.TryRecv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PutAfter(logical.Microsecond, i)
		k.RunAll()
		m.TryRecv()
	}
}
