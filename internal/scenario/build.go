package scenario

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/simnet"
	"repro/internal/someip"
	"repro/internal/trace"
)

// Wire constants of the compiled client/server world. They are part of
// the canonical world description: every platform offers its compute
// service on Port and runs its local-noise sink on NoisePort.
const (
	// ServiceBase is the SOME/IP service ID of platform 0's compute
	// service; platform i offers ServiceBase+i.
	ServiceBase = someip.ServiceID(0x2100)
	// Port is the compute service's endpoint port on every platform.
	Port = 40000
	// NoisePort is the local load generator's sink port.
	NoisePort = 41000
)

// HostID returns the simnet host ID platform i receives during world
// construction, in every execution mode: hosts are added in platform
// order and both Network and Cluster allocate IDs sequentially from 1.
// Fault plans that target specific platform links are built from it.
func HostID(i int) uint16 { return uint16(i) + 1 }

// HostName returns platform i's canonical host name.
func HostName(i int) string { return fmt.Sprintf("plat%02d", i) }

const fnvOffset uint64 = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// World is a compiled scenario: the execution substrate (one kernel or
// a federation), the network (or cluster), the platform hosts and
// runtimes, the topology edges the clients follow, and the per-platform
// stats the workload folds its observable behaviour into. Run executes
// it to completion.
type World struct {
	// Spec is the normalized spec the world was compiled from.
	Spec Spec
	// Edges is the generated call graph: Edges[i] lists the platforms
	// client i calls each round.
	Edges [][]int
	// Hosts are the platform hosts in platform order.
	Hosts []*simnet.Host
	// Runtimes are the platforms' ara runtimes in platform order (the
	// original incarnations; a crash-plan restart builds a successor
	// that is not recorded here).
	Runtimes []*ara.Runtime
	// Stats accumulates the canonical per-platform report rows.
	Stats []PlatformStats

	fed     *des.Federation
	cluster *simnet.Cluster
	single  *des.Kernel
	net     *simnet.Network
	// recorders hold one trace recorder per kernel (a single entry on
	// the classic substrate, one per partition under a federation).
	recorders []*trace.Recorder
	// engines hold one monitor engine per kernel when the spec's
	// monitors block is set, teed onto the same tracer hook as the
	// recorder (see buildSubstrate).
	engines []*monitor.Engine
	// monitorsDone marks that the engines have been finished (flushed);
	// Verdicts sets it so repeated calls stay idempotent.
	monitorsDone bool
}

// Build compiles the spec into a runnable world. Partitions ≤ 1
// selects the classic single-kernel substrate; larger values shard the
// platforms round-robin over that many federated kernels. For a fixed
// (Spec minus Partitions) the world's behaviour — and with it
// StatsReport(Stats) after Run — is identical for every partition
// count; only wall-clock time and mode-internal diagnostics differ.
//
// Construction order is part of the determinism contract and is fixed:
// substrate, hosts in platform order, then all servers, then all
// clients and noise generators, then the crash plan.
func Build(spec Spec) (*World, error) {
	norm, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	edges, err := Topology(norm.Topology, norm.Platforms, norm.Degree, norm.Seed)
	if err != nil {
		return nil, err
	}
	w := &World{Spec: norm, Edges: edges}
	if err := w.buildSubstrate(); err != nil {
		return nil, err
	}

	n := norm.Platforms
	w.Stats = make([]PlatformStats, n)
	w.Runtimes = make([]*ara.Runtime, n)

	// Pass 1: servers. Every platform offers its compute service and
	// binds the local-noise sink. Scheduling order within each kernel is
	// part of the determinism contract, so construction order is fixed:
	// all servers before all clients.
	for i := 0; i < n; i++ {
		rt, err := w.buildServer(i, fmt.Sprintf("mesh%02d", i))
		if err != nil {
			return nil, err
		}
		w.Runtimes[i] = rt
	}

	// Pass 2: clients and noise generators.
	for i := 0; i < n; i++ {
		host := w.Hosts[i]
		w.spawnClient(w.Runtimes[i], i, norm.Rounds, 0)

		// Local load generator: loopback datagrams on this platform only,
		// so its cost parallelizes across partitions without changing any
		// cross-platform interaction. If the platform crashes, its source
		// endpoint closes and the remaining sends are suppressed.
		if norm.NoiseEvents > 0 {
			k := w.Runtimes[i].Kernel()
			g := &noiseGen{
				k:     k,
				src:   host.MustBind(NoisePort + 1),
				sink:  simnet.Addr{Host: host.ID(), Port: NoisePort},
				n:     norm.NoiseEvents,
				every: norm.NoiseInterval,
			}
			// AtLocalFn declares (and the kernel enforces) that the noise
			// chain never emits cross-partition, so the federation excludes
			// its dense event timeline from earliest-output-time bounds —
			// without it, 20µs noise ticks pin every partition's bound to
			// its window end and force lookahead-cadence grants.
			k.AtLocalFn(k.Now(), noiseStep, g)
		}
	}

	// Pass 3: the crash plan. The schedule is installed up front as
	// ordinary kernel events, so it is ordered deterministically against
	// all traffic in every execution mode.
	if cp := norm.Crash; cp != nil {
		host := w.Hosts[cp.Platform]
		host.Crash(cp.At)
		// Lifecycle trace points ride the platform's own kernel so the
		// crash/restart/bind records form one component stream — the
		// rebound-within monitor pairs restart with the re-offer's bind.
		lk := w.Runtimes[cp.Platform].Kernel()
		lifeLabel := HostName(cp.Platform) + ".life"
		lk.At(cp.At, func() { lk.Trace(lifeLabel, trace.KindCrash, nil) })
		if cp.RestartAt > cp.At {
			host.Restart(cp.RestartAt, func() {
				lk.Trace(lifeLabel, trace.KindRestart, nil)
				// Rebuild the platform's stack from scratch, as a rebooted
				// AP node would: fresh runtime (distinct name — stream
				// labels must not collide with the dead incarnation),
				// skeleton re-offered, reborn client.
				rt, err := w.buildServer(cp.Platform, fmt.Sprintf("mesh%02dr", cp.Platform))
				if err != nil {
					panic(err)
				}
				w.spawnClient(rt, cp.Platform, cp.RebornRounds, 0x7eb0)
			})
		}
	}
	return w, nil
}

// noiseGen is one platform's local load generator: a self-rescheduling
// kernel event chain that sends n datagrams, one every `every`, from src
// to the platform's own noise sink. Its steps never block, so it needs
// no process. If the platform crashes, src closes and the remaining
// sends are suppressed.
type noiseGen struct {
	k     *des.Kernel
	src   *simnet.Endpoint
	sink  simnet.Addr
	m, n  int
	every logical.Duration
	buf   [4]byte
}

// noiseStep sends datagram m and schedules the next step. The step after
// the last send sends nothing, but it is an event: the generator fires
// n+1 events, and the event counts and (time, seq) schedules pinned by
// the goldens and TestMeshNoiseBudget include it.
func noiseStep(a any) {
	g := a.(*noiseGen)
	if g.m == g.n {
		return
	}
	binary.BigEndian.PutUint32(g.buf[:], uint32(g.m))
	g.src.Send(g.sink, g.buf[:])
	g.m++
	g.k.AfterTransientFn(g.every, noiseStep, g)
}

// traceCapacity bounds the trace ring for one run: every client call
// yields exactly one req record and one call (or call-err) record plus
// at most one serve record, every noise delivery one record, every
// platform one lifecycle bind, plus slack for reborn clients and the
// crash plan. Complete traces are a determinism requirement (eviction
// is mode-dependent), so the estimate is computed from the actual
// generated edges — Degree alone undercounts the Full shape, whose
// clients call all n-1 peers — and errs high (2× over the exact
// three-records-per-call count).
func (w *World) traceCapacity() int {
	spec := w.Spec
	rounds := spec.Rounds
	if spec.Crash != nil && spec.Crash.RebornRounds > rounds {
		rounds = spec.Crash.RebornRounds
	}
	targets := 0
	for _, edges := range w.Edges {
		targets += len(edges)
	}
	return 6*rounds*targets + spec.Platforms*(spec.NoiseEvents+1) + 256
}

// traceCapacityPartition bounds the trace ring for the platforms pinned
// to one partition (platform i lives on partition i % partitions): the
// partition records its own clients' req and call/call-err records
// (outbound edges, two records per call), its own servers' serve
// records (inbound edges), its own lifecycle binds and its own noise
// deliveries. Sized per partition instead of handing every recorder
// the full global capacity, the federation's total ring memory matches
// the single-kernel ring instead of multiplying it by the partition
// count — with the same 2× slack over the exact record count, because
// eviction anywhere is a mode-dependence bug.
func (w *World) traceCapacityPartition(part, partitions int) int {
	spec := w.Spec
	rounds := spec.Rounds
	if spec.Crash != nil && spec.Crash.RebornRounds > rounds {
		rounds = spec.Crash.RebornRounds
	}
	out, in, noisy := 0, 0, 0
	for i, edges := range w.Edges {
		if i%partitions == part {
			out += len(edges)
			noisy++
		}
		for _, j := range edges {
			if j%partitions == part {
				in++
			}
		}
	}
	return 2*rounds*(2*out+in) + noisy*(spec.NoiseEvents+1) + 256
}

// buildSubstrate creates the kernel(s), the network (or cluster), the
// per-kernel trace recorders and the platform hosts.
func (w *World) buildSubstrate() error {
	spec := w.Spec
	netCfg := simnet.Config{
		DefaultLatency: simnet.FixedLatency(spec.LinkLatency),
		SwitchDelay:    spec.SwitchDelay,
		Faults:         spec.Faults,
	}
	// newEngine builds one monitor engine per kernel when the spec has
	// a monitors block; the engine tees onto the recorder's tracer hook
	// so recording and online verification observe the identical
	// stream. Each engine gets freshly built (stateful) monitors. The
	// return type is the interface so "no monitors" is an untyped nil
	// that TeeTracer drops.
	newEngine := func() des.Tracer {
		if spec.Monitors == nil {
			return nil
		}
		eng := monitor.NewEngine(spec.Monitors.Build()...)
		w.engines = append(w.engines, eng)
		return eng
	}
	if spec.Partitions <= 1 {
		w.single = des.NewKernel(spec.Seed)
		rec := trace.NewRecorder(w.traceCapacity())
		w.single.SetTracer(des.TeeTracer(rec, newEngine()))
		w.recorders = []*trace.Recorder{rec}
		w.net = simnet.NewNetwork(w.single, netCfg)
		for i := 0; i < spec.Platforms; i++ {
			w.Hosts = append(w.Hosts, w.net.AddHost(HostName(i), nil))
		}
		return nil
	}
	w.fed = des.NewFederation(spec.Seed, spec.Partitions)
	for i := 0; i < w.fed.Partitions(); i++ {
		rec := trace.NewRecorder(w.traceCapacityPartition(i, spec.Partitions))
		w.fed.Kernel(i).SetTracer(des.TeeTracer(rec, newEngine()))
		w.recorders = append(w.recorders, rec)
	}
	// Cross-partition traffic in a compiled world flows only along call
	// edges (requests out, responses back): noise is loopback-local and
	// SD multicast is per-partition by the Cluster contract. Declaring
	// exactly those partition routes gives the federation a sparse
	// lookahead matrix, so partitions whose platforms never talk stop
	// constraining each other's grants.
	allowed := make([][]bool, spec.Partitions)
	for i := range allowed {
		allowed[i] = make([]bool, spec.Partitions)
	}
	for i, edges := range w.Edges {
		pi := i % spec.Partitions
		for _, j := range edges {
			pj := j % spec.Partitions
			if pi != pj {
				allowed[pi][pj] = true
				allowed[pj][pi] = true
			}
		}
	}
	cluster, err := simnet.NewClusterRoutes(w.fed, netCfg, func(from, to int) bool {
		return allowed[from][to]
	})
	if err != nil {
		return err
	}
	w.cluster = cluster
	for i := 0; i < spec.Platforms; i++ {
		w.Hosts = append(w.Hosts, cluster.AddHost(i%spec.Partitions, HostName(i), nil))
	}
	return nil
}

// Iface returns platform i's compute service interface.
func Iface(i int) *ara.ServiceInterface {
	return &ara.ServiceInterface{
		Name:  fmt.Sprintf("Mesh%02d", i),
		ID:    ServiceBase + someip.ServiceID(i),
		Major: 1,
		Methods: []ara.MethodSpec{
			{ID: 1, Name: "compute"},
		},
	}
}

// buildServer creates platform i's runtime, compute skeleton and
// local-noise sink. It is used for initial construction and again by
// the crash plan's restart path (with a distinct runtime name, so RNG
// stream labels never collide between the two incarnations). Served
// counts and the noise hash continue across a restart: the stats carry
// the platform's whole history.
func (w *World) buildServer(i int, name string) (*ara.Runtime, error) {
	host := w.Hosts[i]
	rows := w.Stats
	spec := w.Spec
	zeroJitter := func(*des.Rand) logical.Duration { return 0 }
	rt, err := ara.NewRuntime(host, ara.Config{
		Name: name,
		Port: Port,
		Exec: ara.ExecConfig{Workers: 2, Serialized: true, DispatchJitter: zeroJitter},
	})
	if err != nil {
		return nil, err
	}
	sk, err := rt.NewSkeleton(Iface(i), 1)
	if err != nil {
		return nil, err
	}
	k := rt.Kernel()
	serveLabel := HostName(i) + ".server"
	lifeLabel := HostName(i) + ".life"
	if err := sk.Handle("compute", func(c *ara.Ctx, args []byte) ([]byte, error) {
		if corruptCheck != nil && corruptCheck(args) {
			// The integrity check failed without a structural refusal:
			// emit the corruption sentinel the no-silent-corruption
			// monitor watches for. Only the test hook ever sets the
			// check — the DEAR model refuses corrupt inputs structurally,
			// so production handlers never reach this line.
			k.Trace(serveLabel, trace.KindCorrupt, args)
		}
		rows[i].Served++
		h := fnvOffset
		for _, by := range args {
			h = fnvMix(h, uint64(by))
		}
		h = fnvMix(h, uint64(i))
		h = fnvMix(h, uint64(rows[i].Served))
		if chaosServeDraw != nil {
			h = fnvMix(h, chaosServeDraw())
		}
		if spec.WorkSpread > 0 {
			c.Exec(spec.WorkBase + logical.Duration(h%uint64(spec.WorkSpread)))
		} else if spec.WorkBase > 0 {
			c.Exec(spec.WorkBase)
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], h)
		// The trace point sits at computation completion: time and
		// result are mode-independent, and the per-component sequence
		// follows the platform's deterministic serve order.
		k.Trace(serveLabel, trace.KindServe, out[:])
		return out[:], nil
	}); err != nil {
		return nil, err
	}
	if k.Now() == 0 {
		k.At(0, func() {
			sk.Offer()
			// The bind record closes a rebound-within obligation on the
			// lifecycle component. The initial bind has no preceding
			// restart, so the monitor ignores it; the restart path's bind
			// (below, k.Now() > 0) is the one that discharges.
			k.Trace(lifeLabel, trace.KindBind, nil)
		})
	} else {
		sk.Offer()
		k.Trace(lifeLabel, trace.KindBind, nil)
	}

	// Local noise sink: dense intra-platform load, hashed into the
	// report so all modes must schedule it identically.
	sink := host.MustBind(NoisePort)
	noiseLabel := HostName(i) + ".noise"
	if rows[i].NoiseHash == 0 {
		rows[i].NoiseHash = fnvOffset
	}
	sink.OnReceive(func(dg simnet.Datagram) {
		h := rows[i].NoiseHash
		h = fnvMix(h, uint64(dg.SentAt))
		h = fnvMix(h, uint64(k.Now()))
		h = fnvMix(h, uint64(binary.BigEndian.Uint32(dg.Payload)))
		rows[i].NoiseHash = h
		// Noise deliveries carry the seeded local-load timing; tracing
		// them makes the trace as seed-sensitive as the report.
		k.Trace(noiseLabel, trace.KindNoise, dg.Payload)
	})
	return rt, nil
}

// spawnClient starts platform i's client process: `rounds` call rounds
// over its topology targets, folding every response — and every
// observable failure — into the platform's stats. If the platform
// crashes, the client exits at the first call it observes the outage
// on (a dead process issues nothing); the crash plan's reborn client
// picks up after the restart. marker distinguishes incarnations in the
// hash.
func (w *World) spawnClient(rt *ara.Runtime, i, rounds int, marker uint64) {
	spec := w.Spec
	rows := w.Stats
	host := w.Hosts[i]

	// Static peer configuration (the federation has no cross-partition
	// service discovery, mirroring the UDP deployment path).
	targets := w.Edges[i]
	proxies := make([]*ara.Proxy, 0, len(targets))
	for _, j := range targets {
		proxies = append(proxies, rt.StaticProxy(Iface(j), 1,
			simnet.Addr{Host: w.Hosts[j].ID(), Port: Port}))
	}

	// Deterministic per-client skew keeps request arrivals at any
	// server from colliding at identical timestamps, where single- and
	// multi-kernel tie-breaking could legitimately differ. The timeout
	// gets the same treatment so expiry events never tie across
	// platforms either.
	phase := logical.Duration(i)*977*logical.Microsecond + logical.Duration(i)*13
	gap := spec.Gap + logical.Duration(i)*1013
	timeout := spec.CallTimeout
	if timeout > 0 {
		timeout += logical.Duration(i) * 131
	}

	if rows[i].RespHash == 0 {
		rows[i].RespHash = fnvOffset
	}
	k := rt.Kernel()
	callLabel := HostName(i) + ".client"
	rt.Spawn("client", func(c *ara.Ctx) {
		c.Exec(phase)
		var req [12]byte
		for round := 0; round < rounds; round++ {
			if host.Down() {
				// The platform died under us: record the exit and stop —
				// a crashed process issues no further calls.
				rows[i].RespHash = fnvMix(rows[i].RespHash, 0xc0a5)
				return
			}
			for t, px := range proxies {
				binary.BigEndian.PutUint16(req[0:], uint16(i))
				binary.BigEndian.PutUint16(req[2:], uint16(targets[t]))
				binary.BigEndian.PutUint32(req[4:], uint32(round))
				binary.BigEndian.PutUint32(req[8:], uint32(t))
				// The request-issue record opens the responded-within
				// obligation its later call/call-err record discharges —
				// same component, so the pairing is mode-independent.
				k.Trace(callLabel, trace.KindReq, req[:])
				t0 := c.Now()
				fut := px.Call("compute", req[:])
				var resp []byte
				var err error
				if timeout > 0 {
					resp, err = fut.GetTimeout(c.Process(), timeout)
				} else {
					resp, err = fut.Get(c.Process())
				}
				if err != nil {
					// Observable, never silent: fold the failure — and
					// which call it was — into the report.
					rows[i].Errors++
					h := rows[i].RespHash
					h = fnvMix(h, 0xdead)
					h = fnvMix(h, marker)
					h = fnvMix(h, uint64(targets[t]))
					h = fnvMix(h, uint64(round))
					rows[i].RespHash = h
					k.Trace(callLabel, trace.KindCallErr, req[:])
					continue
				}
				rtt := int64(c.Now() - t0)
				k.Trace(callLabel, trace.KindCall, resp)
				rows[i].Calls++
				h := rows[i].RespHash
				h = fnvMix(h, marker)
				h = fnvMix(h, uint64(targets[t]))
				h = fnvMix(h, binary.BigEndian.Uint64(resp))
				h = fnvMix(h, uint64(rtt))
				rows[i].RespHash = h
				rows[i].LatSumNs += rtt
				if rtt > rows[i].LatMaxNs {
					rows[i].LatMaxNs = rtt
				}
			}
			c.Exec(gap)
		}
	})
}

// Run executes the world to completion and shuts the substrate down.
func (w *World) Run() {
	if w.fed != nil {
		w.fed.RunAll()
		w.fed.Shutdown()
		return
	}
	w.single.RunAll()
	w.single.Shutdown()
}

// Describe renders the world's canonical, mode-independent description
// (see the package-level Describe).
func (w *World) Describe() string {
	d, err := Describe(w.Spec)
	if err != nil {
		// The spec was normalized at Build time; it cannot fail here.
		panic(err)
	}
	return d
}

// Verdicts finishes the per-kernel monitor engines (flushing pending
// obligations — idempotent, so repeated calls return the same result)
// and merges their verdicts into the mode-independent whole. It
// returns nil when the spec has no monitors block. Call it after Run.
func (w *World) Verdicts() []monitor.Verdict {
	if len(w.engines) == 0 {
		return nil
	}
	if !w.monitorsDone {
		w.monitorsDone = true
		for _, e := range w.engines {
			e.Finish()
		}
	}
	groups := make([][]monitor.Verdict, len(w.engines))
	for i, e := range w.engines {
		groups[i] = e.Verdicts()
	}
	return monitor.MergeVerdicts(groups...)
}

// Trace merges the per-kernel recorders into the canonical logical
// event trace of the run. The trace is mode-independent: byte-
// identical (after encoding) for every partition count and GOMAXPROCS
// value, like the canonical report — the trace property tests pin
// this. Call it after Run.
func (w *World) Trace() *trace.Trace {
	return trace.Merge(w.recorders...)
}

// Partitions returns the number of partition kernels executing the
// world (1 on the single-kernel substrate).
func (w *World) Partitions() int {
	if w.fed != nil {
		return w.fed.Partitions()
	}
	return 1
}

// CoordRounds returns the federation's coordination-round count (zero
// on a single kernel). Mode-dependent — never part of canonical
// reports.
func (w *World) CoordRounds() uint64 {
	if w.fed != nil {
		return w.fed.Rounds()
	}
	return 0
}

// CoordGrants returns the federation's total dispatched-window count
// (zero on a single kernel). Mode- and schedule-dependent — never part
// of canonical reports.
func (w *World) CoordGrants() uint64 {
	if w.fed != nil {
		return w.fed.Grants()
	}
	return 0
}

// CoordParkedNs returns cumulative wall-clock nanoseconds partitions
// with pending work spent parked between windows (zero on a single
// kernel) — the observable sync tax. Machine-dependent.
func (w *World) CoordParkedNs() int64 {
	if w.fed != nil {
		return w.fed.ParkedNs()
	}
	return 0
}

// EventsFired returns the total kernel events executed. Mode-dependent.
func (w *World) EventsFired() uint64 {
	if w.fed != nil {
		return w.fed.EventsFired()
	}
	return w.single.EventsFired()
}

// Delivered returns the substrate's delivered-datagram count.
// Mode-dependent (SD multicast fan-out is per-partition).
func (w *World) Delivered() uint64 {
	if w.cluster != nil {
		return w.cluster.Delivered()
	}
	return w.net.Delivered()
}

// Dropped returns the substrate's dropped-datagram count.
// Mode-dependent.
func (w *World) Dropped() uint64 {
	if w.cluster != nil {
		return w.cluster.Dropped()
	}
	return w.net.Dropped()
}

// ControlPlane returns the substrate's control-plane counters (see
// simnet.Network.ControlPlane): multicast/topic send calls and their
// total fan-out. With interest-based SD routing the fan-out grows with
// declared interest rather than platforms², which is what the
// city-scale acceptance gate measures. Mode-dependent (fan-out is
// per-partition).
func (w *World) ControlPlane() (sends, fanout uint64) {
	if w.cluster != nil {
		return w.cluster.ControlPlane()
	}
	return w.net.ControlPlane()
}
