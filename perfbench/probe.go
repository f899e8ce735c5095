package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apd"
	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/someip"
	"repro/internal/trace"
)

// sink keeps probe results alive so the compiler cannot drop the
// measured calls.
var sink any

// probe times one layer's public call in isolation. body performs n
// operations and returns the host time of the measured part and the
// lower-layer work it did.
type probe struct {
	metric string
	n      int
	body   func(s shape, n int) (time.Duration, work, error)
}

// work is the lower-layer work a probe did: kernel events, datagram
// deliveries and SOME/IP messages. The ledger takes its modelled cost
// out of a whole-round-trip probe to leave the layer's own cost.
type work struct {
	events, delivered, msgs float64
}

// probeReps is how often each probe repeats; the reported unit cost is
// the median.
const probeReps = 5

var probes = []probe{
	{"des.fire_ns", 200000, probeFire},
	{"des.switch_ns", 50000, probeSwitch},
	{"simnet.deliver_ns", 50000, probeDeliver},
	{"someip.marshal_ns", 200000, probeMarshal},
	{"someip.unmarshal_ns", 200000, probeUnmarshal},
	{"ara.roundtrip_ns", 5000, probeAraRoundTrip},
	{"core.roundtrip_ns", 1000, probeCoreRoundTrip},
	{"apd.vision_ns", 1000, probeVision},
	{"trace.record_ns", 500000, probeTraceRecord},
	{"monitor.record_ns", 500000, probeMonitorRecord},
}

// runProbes measures every probe on the workload's input shape. It
// returns the median ns per operation of each and the lower-layer work
// per operation, with a span per probe.
func runProbes(s shape, l *spanLog, world int) (map[string]float64, map[string]work, error) {
	unit := make(map[string]float64, len(probes))
	perOp := make(map[string]work, len(probes))
	root := l.begin("probes", -1, world)
	defer l.end(root)
	for _, p := range probes {
		id := l.begin(p.metric, root, world)
		per := make([]float64, 0, probeReps)
		var wk work
		for r := 0; r < probeReps; r++ {
			runtime.GC()
			d, w, err := p.body(s, p.n)
			if err != nil {
				return nil, nil, fmt.Errorf("probe %s: %w", p.metric, err)
			}
			per = append(per, float64(d.Nanoseconds())/float64(p.n))
			wk = w
		}
		l.end(id)
		unit[p.metric] = median(per)
		perOp[p.metric] = work{wk.events / float64(p.n), wk.delivered / float64(p.n), wk.msgs / float64(p.n)}
	}
	return unit, perOp, nil
}

// probeFire: one closure-free kernel event per operation.
func probeFire(_ shape, n int) (time.Duration, work, error) {
	k := des.NewKernel(1)
	count := 0
	var chain func(any)
	chain = func(any) {
		count++
		if count < n {
			k.AfterTransientFn(logical.Microsecond, chain, nil)
		}
	}
	k.AtTransientFn(0, chain, nil)
	t := time.Now()
	k.RunAll()
	return time.Since(t), work{}, nil
}

// probeSwitch: one process sleep (a switch out and back) per operation.
func probeSwitch(_ shape, n int) (time.Duration, work, error) {
	k := des.NewKernel(1)
	k.Spawn("switcher", func(p *des.Process) {
		for i := 0; i < n; i++ {
			p.Sleep(logical.Microsecond)
		}
	})
	t := time.Now()
	k.RunAll()
	d := time.Since(t)
	k.Shutdown()
	return d, work{}, nil
}

// probeDeliver: one datagram of the workload's size sent and delivered
// per operation (one kernel event included).
func probeDeliver(s shape, n int) (time.Duration, work, error) {
	k := des.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Config{})
	from, err := net.AddHost("src", nil).Bind(1000)
	if err != nil {
		return 0, work{}, err
	}
	to, err := net.AddHost("dst", nil).Bind(2000)
	if err != nil {
		return 0, work{}, err
	}
	to.OnReceive(func(simnet.Datagram) {})
	payload := make([]byte, s.datagram)
	t := time.Now()
	for i := 0; i < n; i++ {
		from.Send(to.Addr(), payload)
		k.RunAll()
	}
	return time.Since(t), work{}, nil
}

func probeMarshal(s shape, n int) (time.Duration, work, error) {
	buf := make([]byte, s.msg.WireSize())
	t := time.Now()
	for i := 0; i < n; i++ {
		s.msg.MarshalTo(buf)
	}
	d := time.Since(t)
	sink = buf
	return d, work{}, nil
}

// probeUnmarshal decodes with the binding the workload uses: tag-aware
// for tagged messages, stock otherwise.
func probeUnmarshal(s shape, n int) (time.Duration, work, error) {
	wire := s.msg.Marshal()
	decode := someip.Unmarshal
	if s.msg.Tag != nil {
		decode = someip.UnmarshalTagged
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		m, err := decode(wire)
		if err != nil {
			return 0, work{}, err
		}
		sink = m
	}
	return time.Since(t), work{}, nil
}

// probeAraRoundTrip: one blocking stock ara::com call, proxy to
// skeleton and back over a simulated link, configured as a scenario
// platform is.
func probeAraRoundTrip(s shape, n int) (time.Duration, work, error) {
	k := des.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Config{DefaultLatency: simnet.FixedLatency(200 * logical.Microsecond)})
	hs, hc := net.AddHost("server", nil), net.AddHost("client", nil)
	exec := ara.ExecConfig{Workers: 2, Serialized: true, DispatchJitter: func(*des.Rand) logical.Duration { return 0 }}
	srv, err := ara.NewRuntime(hs, ara.Config{Name: "server", Port: scenario.Port, Exec: exec})
	if err != nil {
		return 0, work{}, err
	}
	sk, err := srv.NewSkeleton(scenario.Iface(0), 1)
	if err != nil {
		return 0, work{}, err
	}
	if err := sk.Handle("compute", func(_ *ara.Ctx, args []byte) ([]byte, error) { return args, nil }); err != nil {
		return 0, work{}, err
	}
	k.At(0, sk.Offer)
	cli, err := ara.NewRuntime(hc, ara.Config{Name: "client", Port: scenario.Port, Exec: exec})
	if err != nil {
		return 0, work{}, err
	}
	px := cli.StaticProxy(scenario.Iface(0), 1, simnet.Addr{Host: hs.ID(), Port: scenario.Port})
	done, failed := 0, 0
	cli.Spawn("client", func(c *ara.Ctx) {
		req := s.msg.Payload
		for i := 0; i < n; i++ {
			if _, err := px.Call("compute", req).Get(c.Process()); err != nil {
				failed++
				continue
			}
			done++
		}
	})
	t := time.Now()
	k.RunAll()
	d := time.Since(t)
	k.Shutdown()
	if done != n {
		return 0, work{}, fmt.Errorf("%d of %d calls completed, %d failed", done, n, failed)
	}
	sent, _, _ := cli.ConnStats()
	served, _, _ := srv.ConnStats()
	return d, work{events: float64(k.EventsFired()), delivered: float64(net.Delivered()), msgs: float64(sent + served)}, nil
}

// probeCoreRoundTrip: one tagged call through the Figure 3 transactor
// chain. Running n extra round trips on top of a short run subtracts
// the chain's set-up, leaving the marginal cost.
func probeCoreRoundTrip(_ shape, n int) (time.Duration, work, error) {
	const base = 100
	timed := func(calls int) (time.Duration, error) {
		t := time.Now()
		got, err := exp.RunMethodRoundTrips(1, calls)
		if err != nil {
			return 0, err
		}
		if got != calls {
			return 0, fmt.Errorf("%d of %d round trips completed", got, calls)
		}
		return time.Since(t), nil
	}
	short, err := timed(base)
	if err != nil {
		return 0, work{}, err
	}
	long, err := timed(base + n)
	if err != nil {
		return 0, work{}, err
	}
	return long - short, work{}, nil
}

// probeVision: the brake assistant's compute per frame — synthesis,
// lane detection and vehicle detection.
func probeVision(_ shape, n int) (time.Duration, work, error) {
	scene := &apd.Scene{}
	t := time.Now()
	for i := 0; i < n; i++ {
		f := scene.Generate(logical.Time(i))
		sink = apd.DetectVehicles(f, apd.Preprocess(f))
	}
	return time.Since(t), work{}, nil
}

func probeTraceRecord(s shape, n int) (time.Duration, work, error) {
	r := trace.NewRecorder(1 << 14)
	payload := make([]byte, s.tracePayload)
	t := time.Now()
	for i := 0; i < n; i++ {
		r.TraceEvent(logical.Time(i), "plat00.client", s.traceKind, payload)
	}
	return time.Since(t), work{}, nil
}

// probeMonitorRecord: one record through the standard safety library.
func probeMonitorRecord(s shape, n int) (time.Duration, work, error) {
	eng := monitor.NewEngine(
		monitor.NoSilentCorruption(),
		monitor.RespondedWithin(logical.Millisecond),
		monitor.ReboundWithin(logical.Millisecond),
	)
	payload := make([]byte, s.tracePayload)
	t := time.Now()
	for i := 0; i < n; i++ {
		eng.TraceEvent(logical.Time(i), "plat00.noise", s.traceKind, payload)
	}
	return time.Since(t), work{}, nil
}

// ledgerTerm is one layer's share of the modelled run time: a count
// from the run times a probe's unit cost.
type ledgerTerm struct {
	layer string
	count uint64
	unit  float64 // ns per operation
}

// ledger models run_s from the counts and the probes. Each term covers
// work no other term covers: a delivery's own kernel event is counted
// in des.events, and an ara call's events, deliveries and codec work in
// their own terms, leaving ara's dispatch (the skeleton's process per
// request, futures, executor) in the ara term. Process switches outside
// ara calls have no public counter, and reactor scheduling and the
// transactors are probed only as whole round trips, so their cost lands
// in the residual, with the federation's coordination and GC.
func ledger(c counts, unit map[string]float64, perOp map[string]work) []ledgerTerm {
	fire := unit["des.fire_ns"]
	deliverNet := max(unit["simnet.deliver_ns"]-fire, 0)
	codec := unit["someip.marshal_ns"] + unit["someip.unmarshal_ns"]
	aw := perOp["ara.roundtrip_ns"]
	araSelf := max(unit["ara.roundtrip_ns"]-aw.events*fire-aw.delivered*deliverNet-aw.msgs*codec, 0)
	return []ledgerTerm{
		{"des.events × des.fire_ns", c.events, fire},
		{"simnet.delivered × (deliver − fire)", c.delivered, deliverNet},
		{"someip.messages × (marshal + unmarshal)", c.someipMsgs, codec},
		{"ara.calls × ara dispatch", c.calls, araSelf},
		{"trace.records × trace.record_ns", c.traceRecords, unit["trace.record_ns"]},
		{"monitor records × monitor.record_ns", c.monitorRecords, unit["monitor.record_ns"]},
		{"apd.frames × apd.vision_ns", c.frames, unit["apd.vision_ns"]},
	}
}

func modelled(terms []ledgerTerm) float64 {
	total := 0.0
	for _, t := range terms {
		total += float64(t.count) * t.unit / 1e9
	}
	return total
}
