package dear_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// Reference counts of the federation-scaling workload
// (federationScalingConfig) at 4 partitions with GOMAXPROCS=1, where the
// coordinator's schedule is fully serialized and the round count is
// reproducible. They were recorded with go1.24 from 13 iterations of
// BenchmarkFederationScaling's partitions-4 body run under GOMAXPROCS=1.
// The gates below allow 25% above each.
const (
	refFedSyncRounds = 71    // coordination rounds per run
	refFedGrants     = 279   // grants issued per run
	refFedAllocs     = 63676 // heap allocations per run
	refFedEvents     = 99584 // events fired per run
)

// TestFederationRoundsBudget is the coordination-cost regression gate:
// it re-runs the FederationScaling workload at 4 partitions once and
// fails if the coordination-round count regresses more than 25% above
// refFedSyncRounds. Rounds only shrink with parallelism — eager
// re-grants bypass the all-parked sweep the counter tracks — so the
// serialized reference is an upper bound on any healthy schedule.
// Grants are budgeted the same way against refFedGrants. CI runs this
// next to the federation race tests; a wall-clock benchmark would be
// noise-bound here, but the round and grant counts are structural.
func TestFederationRoundsBudget(t *testing.T) {
	res, err := exp.RunMesh(1, federationScalingConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(res.CoordRounds); got > refFedSyncRounds*1.25 {
		t.Errorf("sync rounds at 4 partitions regressed: %v > reference %v +25%%", got, refFedSyncRounds)
	}
	if got := float64(res.CoordGrants); got > refFedGrants*1.25 {
		t.Errorf("grant count at 4 partitions regressed: %v > reference %v +25%%", got, refFedGrants)
	}
}

// TestFederationAllocBudget is the allocation regression gate of the
// kernel hot-path work: it re-runs the FederationScaling workload at 4
// partitions and fails if heap allocations per fired event exceed the
// reference (refFedAllocs over refFedEvents) by more than 25%.
// Allocation counts are not byte-exact across runs — goroutine
// scheduling shifts amortized growth — but a pooled-event kernel sits
// far enough below the closure-per-event one (~3x) that 25% headroom
// separates noise from regression.
func TestFederationAllocBudget(t *testing.T) {
	const refAllocsPerEvent = float64(refFedAllocs) / refFedEvents
	cfg := federationScalingConfig()
	// Warm-up run: one-time costs (lazily grown pools, map growth) are
	// not what the per-event budget tracks.
	if _, err := exp.RunMesh(1, cfg, 4); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := exp.RunMesh(1, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocsPerEvent := float64(after.Mallocs-before.Mallocs) / float64(res.EventsFired)
	if allocsPerEvent > refAllocsPerEvent*1.25 {
		t.Errorf("allocs/event at 4 partitions regressed: %.3f > reference %.3f +25%%",
			allocsPerEvent, refAllocsPerEvent)
	}
}

// Reference counts of the call path on a single-kernel city of 500
// platforms with 2 rounds at seed 1 (cityCallBudgetSpec). The call and
// event counts are exact: they are the schedule the executor produced
// when it still spawned a process per request, and the pooled executor
// must reproduce it event for event. refCityRunAllocs was recorded with
// go1.24 on linux/amd64 as the heap allocations of World.Run alone (build
// excluded), the median of five runs of that world after pooling; it was
// 94 100 before.
const (
	refCityCalls     = 3000
	refCityEvents    = 23500
	refCityRunAllocs = 47079
)

func cityCallBudgetSpec() scenario.Spec {
	return exp.CitySpec(exp.CityConfig{Platforms: 500, Rounds: 2, Partitions: 1, Seed: 1})
}

// TestCityCallBudget is the structural guard of the ara call path. Events
// per call must equal the reference exactly, which proves the event
// schedule is unchanged; heap allocations per call may drift at most 25%
// above refCityRunAllocs/refCityCalls.
func TestCityCallBudget(t *testing.T) {
	w, err := scenario.Build(cityCallBudgetSpec())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Run()
	runtime.ReadMemStats(&after)
	calls := 0
	for _, row := range w.Stats {
		calls += row.Calls
	}
	if calls != refCityCalls || w.EventsFired() != refCityEvents {
		t.Fatalf("city call path: %d events for %d calls, want exactly %d for %d",
			w.EventsFired(), calls, refCityEvents, refCityCalls)
	}
	const refAllocsPerCall = float64(refCityRunAllocs) / refCityCalls
	allocsPerCall := float64(after.Mallocs-before.Mallocs) / float64(calls)
	if allocsPerCall > refAllocsPerCall*1.25 {
		t.Errorf("allocs/call regressed: %.2f > reference %.2f +25%%", allocsPerCall, refAllocsPerCall)
	}
}

// Reference counts of the federation-scaling workload
// (federationScalingConfig) on a single kernel at seed 1: 16 platforms,
// each sending 3 000 local noise datagrams. The event count is exact: it
// is the schedule the noise generator produced as one process per
// platform, and the event-chain generator must reproduce it event for
// event. refMeshNoiseRunAllocs was recorded with go1.24 on linux/amd64
// as the heap allocations of World.Run alone (build excluded), the
// median of five runs of the event-chain generator; the process form
// read the same (54 184), since its wake events were already recycled.
// About 48 000 of them are the payload copies of Endpoint.Send, one per
// noise datagram.
const (
	refMeshNoiseSends     = 16 * 3000
	refMeshNoiseEvents    = 99584
	refMeshNoiseRunAllocs = 54182
)

// settledGoroutines returns the goroutine count once it has stopped
// changing, so that goroutines of earlier tests still unwinding do not
// leak into a before/after difference.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for stable := 0; stable < 3; {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
	}
	return n
}

// buildGoroutines builds spec and returns the world with the number of
// goroutines its construction started.
func buildGoroutines(t *testing.T, spec scenario.Spec) (*scenario.World, int) {
	t.Helper()
	base := settledGoroutines()
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w, runtime.NumGoroutine() - base
}

// TestMeshNoiseBudget is the structural guard of the local load
// generator. The single-kernel mesh must fire exactly refMeshNoiseEvents
// events; building it must start no more goroutines than the same world
// without noise; and World.Run's heap allocations per noise send may
// drift at most 25% above refMeshNoiseRunAllocs/refMeshNoiseSends.
func TestMeshNoiseBudget(t *testing.T) {
	spec := federationScalingConfig()
	spec.Seed, spec.Partitions = 1, 1
	quiet := spec
	quiet.NoiseEvents, quiet.NoiseInterval = 0, 0

	qw, quietG := buildGoroutines(t, quiet)
	qw.Run()
	w, noisyG := buildGoroutines(t, spec)
	if noisyG != quietG {
		t.Errorf("building the mesh started %d goroutines with %d noise events per platform, %d without",
			noisyG, spec.NoiseEvents, quietG)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Run()
	runtime.ReadMemStats(&after)
	sends := spec.Platforms * spec.NoiseEvents
	if sends != refMeshNoiseSends || w.EventsFired() != refMeshNoiseEvents {
		t.Fatalf("mesh noise: %d events for %d noise sends, want exactly %d for %d",
			w.EventsFired(), sends, refMeshNoiseEvents, refMeshNoiseSends)
	}
	const refAllocsPerSend = float64(refMeshNoiseRunAllocs) / refMeshNoiseSends
	allocsPerSend := float64(after.Mallocs-before.Mallocs) / float64(sends)
	if allocsPerSend > refAllocsPerSend*1.25 {
		t.Errorf("allocs/noise send regressed: %.3f > reference %.3f +25%%", allocsPerSend, refAllocsPerSend)
	}
}

// TestTransientPathZeroAlloc pins the zero-allocation claims of the
// closure-free hot paths: once pools are warm, a schedule+fire round
// trip on simnet datagram delivery, a mailbox timed put and a future
// resolution with registered callbacks must not allocate at all. These
// are exact pins, not budgets — a single stray closure or interface box
// on any of these paths fails the gate.
func TestTransientPathZeroAlloc(t *testing.T) {
	const runs = 100

	t.Run("SimnetDeliver", func(t *testing.T) {
		k := des.NewKernel(1)
		n := simnet.NewNetwork(k, simnet.Config{})
		src := n.AddHost("src", nil)
		dst := n.AddHost("dst", nil)
		from, err := src.Bind(1000)
		if err != nil {
			t.Fatal(err)
		}
		to, err := dst.Bind(2000)
		if err != nil {
			t.Fatal(err)
		}
		received := 0
		to.OnReceive(func(simnet.Datagram) { received++ })
		// The empty payload isolates the delivery machinery from the
		// caller's payload copy (which is proportional to message size,
		// not a per-event overhead).
		if avg := testing.AllocsPerRun(runs, func() {
			from.Send(to.Addr(), nil)
			k.RunAll()
		}); avg != 0 {
			t.Errorf("simnet delivery schedule+fire allocates %.1f per op, want 0", avg)
		}
		if received != runs+1 {
			t.Fatalf("delivered %d of %d", received, runs+1)
		}
	})

	t.Run("MailboxTimedPut", func(t *testing.T) {
		k := des.NewKernel(1)
		m := des.NewMailbox[int](k, "gate")
		if avg := testing.AllocsPerRun(runs, func() {
			m.PutAfter(logical.Microsecond, 7)
			k.RunAll()
			if _, ok := m.TryRecv(); !ok {
				t.Fatal("timed put not delivered")
			}
		}); avg != 0 {
			t.Errorf("mailbox timed put schedule+fire allocates %.1f per op, want 0", avg)
		}
	})

	t.Run("FutureResolve", func(t *testing.T) {
		k := des.NewKernel(1)
		// Futures (and their callback registrations) are created outside
		// the measured region: the gate pins the resolution+delivery
		// round trip, not construction.
		fired := 0
		cb := func(ara.Result) { fired++ }
		futures := make([]*ara.Future, runs+1)
		for i := range futures {
			futures[i] = ara.NewFuture(k)
			futures[i].Then(cb)
		}
		i := 0
		if avg := testing.AllocsPerRun(runs, func() {
			futures[i].Resolve(ara.Result{})
			i++
			k.RunAll()
		}); avg != 0 {
			t.Errorf("future resolution schedule+fire allocates %.1f per op, want 0", avg)
		}
		if fired != runs+1 {
			t.Fatalf("fired %d of %d callbacks", fired, runs+1)
		}
	})
}
