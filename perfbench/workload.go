package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/apd"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/monitor"
	"repro/internal/scenario"
	"repro/internal/someip"
	"repro/internal/trace"
)

// partitions is the federation width of the scenario workloads.
const partitions = 2

// Workload sizes. Each world takes well under a second of host time on
// a 2-core Xeon, so a 40-second run holds some 40 worlds or more, enough
// for a steady 90th percentile.
const (
	cityPlatforms = exp.DefaultCityPlatforms
	cityRounds    = 2
	meshPlatforms = 16
	meshRounds    = 40
	meshNoise     = 12000
	brakeFrames   = 1000
)

// counts are the structural counts of one world, read from the layers'
// public accessors after the run. Except for the federation's rounds,
// grants and parked time, which depend on the host's scheduling, they
// repeat exactly for a given seed.
type counts struct {
	events, delivered, dropped, ctrlFanout uint64
	fedRounds, fedGrants                   uint64
	fedParkedS                             float64
	someipMsgs                             uint64
	calls, served, callErrors              uint64
	traceRecords                           uint64
	monitorChecks, monitorViolations       uint64
	// monitorRecords counts the trace records the monitor engines saw.
	monitorRecords                                       uint64
	frames, apdErrors, deadlineViolations, stpViolations uint64
}

// canon is a world's canonical output: the bytes the correctness gate
// compares against the reference.
type canon struct {
	report, trace, verdicts []byte
}

func (c canon) equal(o canon) bool {
	return bytes.Equal(c.report, o.report) && bytes.Equal(c.trace, o.trace) && bytes.Equal(c.verdicts, o.verdicts)
}

// instance is one built world of a workload.
type instance interface {
	run()
	// outputs produces the canonical outputs, with a span around each
	// layer call. It is called once, after run.
	outputs(l *spanLog, parent, world int) canon
	// counts reads the structural counts; call it after outputs.
	counts() counts
}

// shape is the input shape a workload feeds the layers, which the
// per-layer probes replay in isolation.
type shape struct {
	// msg is the SOME/IP message the workload's calls or frames carry.
	msg *someip.Message
	// datagram is the payload size of the workload's dominant simnet
	// datagram.
	datagram int
	// traceKind and tracePayload describe its dominant trace record.
	traceKind    string
	tracePayload int
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// kernels is how many kernels run in parallel, and the GOMAXPROCS
	// the workload runs at. A single kernel is sequential: a second P
	// would only move each process switch across OS threads. The
	// benchmark refuses a host with fewer CPUs than kernels, where it
	// would measure the OS scheduler instead of the simulator.
	kernels int
	// build compiles the world for seed; it is the timed set-up.
	build func(seed uint64) (instance, error)
	// reference computes the canonical output every run of seed must
	// reproduce. It runs once, outside the timers.
	reference func(seed uint64) (canon, error)
	// check applies the workload's acceptance rules beyond byte
	// equality.
	check func(c counts) error
	shape shape
}

var workloads = []*workload{
	{
		name:      "city",
		kernels:   partitions,
		why:       "5000-platform stock ara::com city on 2 partitions: call-, process-switch- and build-heavy with dense federation grants; no monitors, no DEAR",
		build:     func(seed uint64) (instance, error) { return buildScenario(citySpec(seed, partitions)) },
		reference: func(seed uint64) (canon, error) { return scenarioReference(citySpec(seed, 1)) },
		check:     checkCalls,
		shape:     shape{msg: requestMsg(), datagram: requestMsg().WireSize(), traceKind: trace.KindCall, tracePayload: 8},
	},
	{
		name:      "mesh-noise",
		kernels:   partitions,
		why:       "16-platform mesh on 2 partitions with dense local noise and monitors: event-, delivery-, trace- and monitor-heavy; few calls, cheap build",
		build:     func(seed uint64) (instance, error) { return buildScenario(meshSpec(seed, partitions)) },
		reference: func(seed uint64) (canon, error) { return scenarioReference(meshSpec(seed, 1)) },
		check:     checkMonitored,
		shape:     shape{msg: requestMsg(), datagram: 4, traceKind: trace.KindNoise, tracePayload: 4},
	},
	{
		name:      "brake-dear",
		kernels:   1,
		why:       "the paper's DEAR brake assistant on one kernel: transactors, reactor scheduling, tagged 1548-byte frames, vision; no federation",
		build:     buildBrake,
		reference: brakeReference,
		check:     checkBrake,
		shape:     shape{msg: frameMsg(), datagram: frameMsg().WireSize(), traceKind: trace.KindCall, tracePayload: 8},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// citySpec is E14's city at the benchmark's size.
func citySpec(seed uint64, parts int) scenario.Spec {
	return exp.CitySpec(exp.CityConfig{Platforms: cityPlatforms, Rounds: cityRounds, Partitions: parts, Seed: seed})
}

// meshSpec is E10's mesh with a 2 ms link, 20 µs local noise and the
// standard monitor library attached.
func meshSpec(seed uint64, parts int) scenario.Spec {
	spec := exp.DefaultMeshConfig(meshPlatforms)
	spec.Rounds = meshRounds
	spec.NoiseEvents = meshNoise
	spec.NoiseInterval = 20 * logical.Microsecond
	spec.LinkLatency = 2 * logical.Millisecond
	spec.Monitors = scenario.DefaultMonitors(spec)
	spec.Seed = seed
	spec.Partitions = parts
	return spec
}

// requestMsg is the compute request a scenario client sends: 12 bytes,
// untagged.
func requestMsg() *someip.Message {
	return &someip.Message{Service: scenario.ServiceBase, Method: 1, Client: 1, Session: 1,
		InterfaceVersion: 1, Type: someip.TypeRequest, Payload: make([]byte, 12)}
}

// frameMsg is one tagged video frame of the brake assistant.
func frameMsg() *someip.Message {
	tag := logical.Tag{Time: 123456789, Microstep: 2}
	return &someip.Message{Service: 1, Method: someip.EventID(1), Type: someip.TypeNotification,
		Payload: make([]byte, 1548), Tag: &tag}
}

type scenarioWorld struct {
	w       *scenario.World
	records uint64
	checks  uint64
	viols   uint64
}

func buildScenario(spec scenario.Spec) (instance, error) {
	w, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	return &scenarioWorld{w: w}, nil
}

func (s *scenarioWorld) run() { s.w.Run() }

func (s *scenarioWorld) outputs(l *spanLog, parent, world int) canon {
	id := l.begin("trace.merge", parent, world)
	t := s.w.Trace()
	l.end(id)
	id = l.begin("trace.encode", parent, world)
	enc := t.Encode()
	l.end(id)
	id = l.begin("scenario.report", parent, world)
	report := scenario.StatsReport(s.w.Stats)
	l.end(id)
	id = l.begin("monitor.verdicts", parent, world)
	verdicts := s.w.Verdicts()
	vreport := monitor.Report(verdicts)
	l.end(id)
	s.records = uint64(t.Len())
	for i := range verdicts {
		s.checks += verdicts[i].Checked
		s.viols += verdicts[i].Violations
	}
	return canon{report: []byte(report), trace: enc, verdicts: []byte(vreport)}
}

func (s *scenarioWorld) counts() counts {
	w := s.w
	_, fanout := w.ControlPlane()
	c := counts{
		events:            w.EventsFired(),
		delivered:         w.Delivered(),
		dropped:           w.Dropped(),
		ctrlFanout:        fanout,
		fedRounds:         w.CoordRounds(),
		fedGrants:         w.CoordGrants(),
		fedParkedS:        float64(w.CoordParkedNs()) / 1e9,
		traceRecords:      s.records,
		monitorChecks:     s.checks,
		monitorViolations: s.viols,
	}
	if w.Spec.Monitors != nil {
		c.monitorRecords = s.records
	}
	for _, rt := range w.Runtimes {
		sent, _, _ := rt.ConnStats()
		c.someipMsgs += sent
	}
	for i := range w.Stats {
		c.calls += uint64(w.Stats[i].Calls)
		c.served += uint64(w.Stats[i].Served)
		c.callErrors += uint64(w.Stats[i].Errors)
	}
	return c
}

// scenarioReference runs spec (single-kernel) and returns its outputs.
func scenarioReference(spec scenario.Spec) (canon, error) {
	inst, err := buildScenario(spec)
	if err != nil {
		return canon{}, err
	}
	inst.run()
	return inst.outputs(nil, -1, 0), nil
}

func checkCalls(c counts) error {
	if c.callErrors > 0 {
		return fmt.Errorf("%d of %d calls failed", c.callErrors, c.calls+c.callErrors)
	}
	if c.calls == 0 {
		return fmt.Errorf("no calls completed")
	}
	return nil
}

func checkMonitored(c counts) error {
	if err := checkCalls(c); err != nil {
		return err
	}
	if c.monitorChecks == 0 {
		return fmt.Errorf("monitors checked nothing")
	}
	if c.monitorViolations > 0 {
		return fmt.Errorf("%d monitor violations", c.monitorViolations)
	}
	return nil
}

type brakeWorld struct {
	d *apd.Deterministic
}

// brakeConfig is the paper's deployment with narrower execution-time
// jitter. At the default 1.2 ms sigma, Computer Vision's 20 ms mean
// crosses its 25 ms deadline at 4.2 sigma, about once in 70k frames
// (one seed in 40 at 2000 frames). DEAR reports that miss as an
// observable error, as it should, but the benchmark needs worlds on
// which no operation fails. At 0.8 ms the deadline sits at 6.3 sigma;
// the paper's deadlines and mean execution times are unchanged.
func brakeConfig() apd.DeterministicConfig {
	cfg := apd.DefaultDeterministicConfig(brakeFrames)
	cfg.ExecSigma = 800 * logical.Microsecond
	return cfg
}

func buildBrake(seed uint64) (instance, error) {
	d, err := apd.NewDeterministic(seed, brakeConfig())
	if err != nil {
		return nil, err
	}
	return &brakeWorld{d: d}, nil
}

func (b *brakeWorld) run() { b.d.Run() }

// outputs encodes the brake decisions and the logical tags EBA
// processed them at. The DEAR world has no trace recorder, monitor
// engine or scenario rows; the verify phase still makes those layers'
// calls, on empty input, so their phase figures are measured times
// like on every other workload rather than a constant.
func (b *brakeWorld) outputs(l *spanLog, parent, world int) canon {
	id := l.begin("trace.merge", parent, world)
	t := trace.Merge()
	l.end(id)
	id = l.begin("trace.encode", parent, world)
	sink = t.Encode()
	l.end(id)
	id = l.begin("scenario.report", parent, world)
	sink = scenario.StatsReport(nil)
	l.end(id)
	id = l.begin("monitor.verdicts", parent, world)
	sink = monitor.Report(monitor.MergeVerdicts())
	l.end(id)

	id = l.begin("apd.outputs", parent, world)
	var brakes, tags bytes.Buffer
	for i := range b.d.BrakeSeq {
		brakes.Write(apd.MarshalBrake(&b.d.BrakeSeq[i]))
	}
	var buf [12]byte
	for _, tag := range b.d.TagTrace {
		binary.BigEndian.PutUint64(buf[:8], uint64(tag.Time))
		binary.BigEndian.PutUint32(buf[8:], uint32(tag.Microstep))
		tags.Write(buf[:])
	}
	l.end(id)
	return canon{report: brakes.Bytes(), trace: tags.Bytes()}
}

func (b *brakeWorld) counts() counts {
	d := b.d
	_, fanout := d.Net.ControlPlane()
	c := counts{
		events:             d.Kernel.EventsFired(),
		delivered:          d.Net.Delivered(),
		dropped:            d.Net.Dropped(),
		ctrlFanout:         fanout,
		frames:             d.Counters.FramesProcessed,
		apdErrors:          d.Counters.TotalErrors(),
		deadlineViolations: d.Counters.DeadlineViolations,
		stpViolations:      d.Counters.SafeToProcessViolations,
	}
	// The camera's frames are raw datagrams; every other delivery is a
	// SOME/IP message.
	if c.delivered > d.Counters.FramesSent {
		c.someipMsgs = c.delivered - d.Counters.FramesSent
	}
	return c
}

// brakeReference takes the brake sequence from a run under a second
// physical seed, because DEAR's determinism property is that the
// decisions do not depend on physical timing, and the tag trace from a
// run under the same seed: tags follow the camera's physical jitter,
// so they repeat only for the same seed.
func brakeReference(seed uint64) (canon, error) {
	ref := func(seed uint64) (canon, error) {
		inst, err := buildBrake(seed)
		if err != nil {
			return canon{}, err
		}
		inst.run()
		if err := checkBrake(inst.counts()); err != nil {
			return canon{}, fmt.Errorf("reference run: %w", err)
		}
		return inst.outputs(nil, -1, 0), nil
	}
	same, err := ref(seed)
	if err != nil {
		return canon{}, err
	}
	other, err := ref(seed ^ 0x9e3779b97f4a7c15)
	if err != nil {
		return canon{}, err
	}
	if bytes.Equal(same.trace, other.trace) {
		return canon{}, fmt.Errorf("tag traces of two physical seeds are equal: the physical seed is not used")
	}
	return canon{report: other.report, trace: same.trace}, nil
}

func checkBrake(c counts) error {
	if c.apdErrors > 0 {
		return fmt.Errorf("%d DEAR errors", c.apdErrors)
	}
	if c.frames != brakeFrames {
		return fmt.Errorf("%d of %d frames processed", c.frames, brakeFrames)
	}
	return nil
}
