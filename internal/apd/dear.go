package apd

import (
	"repro/internal/ara"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// DeterministicConfig parameterizes the DEAR brake assistant of
// Section IV-B.
type DeterministicConfig struct {
	Frames int
	Period logical.Duration
	// Execution-time model (identical to the baseline's, so that the two
	// implementations are compared under the same physical conditions).
	PreExecMean       logical.Duration
	CVExecMean        logical.Duration
	ExecSigma         logical.Duration
	CameraJitterSigma logical.Duration
	SettleTime        logical.Duration

	// Deadlines per the paper: "we set the deadlines to 5ms for Video
	// Adapter, 25ms for Preprocessing, 25ms for Computer Vision and 5ms
	// for EBA. We further assume a maximum communication latency of 5ms."
	VADeadline  logical.Duration
	PreDeadline logical.Duration
	CVDeadline  logical.Duration
	EBADeadline logical.Duration
	Latency     logical.Duration
	// ClockError is zero: "all SWCs of this application are deployed to
	// the same platform".
	ClockError logical.Duration

	// DeadlineScale scales every deadline (and the latency bound stays
	// fixed); values below 1 deliberately trade sporadic observable
	// errors for lower end-to-end latency, the trade-off discussed at the
	// end of Section IV-B.
	DeadlineScale float64

	// SplitPlatforms deploys Computer Vision and EBA on a third platform
	// with drifting, periodically synchronized clocks — an extension
	// beyond the paper's single-platform deterministic deployment that
	// exercises the full PTIDES coordination (E > 0). ClockError must
	// then bound the relative clock error: 2×(SyncBound + drift accrual).
	SplitPlatforms bool
	// DriftPPB is the oscillator error magnitude per platform when
	// splitting (each platform gets ±DriftPPB).
	DriftPPB int64
	// SyncBound is the per-platform synchronization bound when splitting.
	SyncBound logical.Duration

	// Faults installs a deterministic fault schedule on the network
	// (experiment E11); nil leaves the network fault-free, preserving the
	// E4 goldens byte-for-byte. Combine with SplitPlatforms to put faults
	// on the inter-SWC path (platform 2 ↔ platform 3).
	Faults *simnet.FaultPlan
}

// DefaultDeterministicConfig mirrors the paper's deployment numbers.
func DefaultDeterministicConfig(frames int) DeterministicConfig {
	return DeterministicConfig{
		Frames:            frames,
		Period:            50 * logical.Millisecond,
		PreExecMean:       18 * logical.Millisecond,
		CVExecMean:        20 * logical.Millisecond,
		ExecSigma:         1200 * logical.Microsecond,
		CameraJitterSigma: 500 * logical.Microsecond,
		SettleTime:        300 * logical.Millisecond,
		VADeadline:        5 * logical.Millisecond,
		PreDeadline:       25 * logical.Millisecond,
		CVDeadline:        25 * logical.Millisecond,
		EBADeadline:       5 * logical.Millisecond,
		Latency:           5 * logical.Millisecond,
		DeadlineScale:     1.0,
	}
}

// SplitDeterministicConfig is DefaultDeterministicConfig with CV and
// EBA deployed on a third platform whose clock drifts and is only
// periodically synchronized — full PTIDES coordination with E > 0.
func SplitDeterministicConfig(frames int) DeterministicConfig {
	cfg := DefaultDeterministicConfig(frames)
	cfg.SplitPlatforms = true
	cfg.DriftPPB = 30_000                       // ±30 ppm oscillators
	cfg.SyncBound = logical.Millisecond         // per-platform sync error
	cfg.ClockError = 2500 * logical.Microsecond // E ≥ 2×(bound + drift accrual)
	// Per the paper, deadlines must account for WCET *and* the
	// synchronization error: clock resyncs can jump a local clock by up
	// to 2×SyncBound mid-computation, so each deadline gets that margin.
	cfg.VADeadline += 3 * logical.Millisecond
	cfg.PreDeadline += 3 * logical.Millisecond
	cfg.CVDeadline += 3 * logical.Millisecond
	cfg.EBADeadline += 3 * logical.Millisecond
	return cfg
}

func (c *DeterministicConfig) scaled(d logical.Duration) logical.Duration {
	if c.DeadlineScale <= 0 {
		return d
	}
	s := logical.Duration(float64(d) * c.DeadlineScale)
	if s < logical.Microsecond {
		s = logical.Microsecond
	}
	return s
}

// Deterministic is the assembled DEAR brake assistant.
type Deterministic struct {
	Kernel   *des.Kernel
	Net      *simnet.Network
	Counters ErrorCounters
	// BrakeSeq records EBA decisions in tag order.
	BrakeSeq []BrakeCmd
	// Latencies are the end-to-end physical delays from frame capture to
	// brake decision, one entry per processed frame.
	Latencies []logical.Duration
	// TagTrace records the logical tags at which EBA processed frames,
	// relative to each frame's arrival tag (for replay comparison).
	TagTrace []logical.Tag

	cfg      DeterministicConfig
	horizon  logical.Time
	swcs     []*core.SWC
	watchers []setStats
}

// NewDeterministic builds the DEAR deployment: the camera remains on
// platform 1; Video Adapter, Preprocessing, Computer Vision and EBA are
// reactor-based SWCs on platform 2 communicating via tagged messages.
func NewDeterministic(seed uint64, cfg DeterministicConfig) (*Deterministic, error) {
	// Same declarative substrate as the baseline (identical link model
	// and switch delay, so the two variants are compared under the same
	// physical conditions); the DEAR deployment draws no per-instance
	// randomness — drifts are fixed, clocks resynchronize periodically.
	platforms := []scenario.PlatformSpec{{Name: "platform1"}}
	if cfg.SplitPlatforms {
		platforms = append(platforms,
			scenario.PlatformSpec{Name: "platform2", Clock: scenario.ClockSpec{
				DriftPPB: cfg.DriftPPB, SyncBound: cfg.SyncBound,
				SyncPeriod: 500 * logical.Millisecond, SyncStream: "sync.p2",
			}},
			scenario.PlatformSpec{Name: "platform3", Clock: scenario.ClockSpec{
				DriftPPB: -cfg.DriftPPB, SyncBound: cfg.SyncBound,
				SyncPeriod: 500 * logical.Millisecond, SyncStream: "sync.p3",
			}})
	} else {
		platforms = append(platforms, scenario.PlatformSpec{Name: "platform2"})
	}
	w := scenario.BuildPipeline(seed, scenario.PipelineSpec{
		Link:        pipelineLink(),
		SwitchDelay: 20 * logical.Microsecond,
		Faults:      cfg.Faults,
		Platforms:   platforms,
	})
	k, n := w.Kernel, w.Net
	p2 := w.Hosts[1]
	p3 := p2
	if cfg.SplitPlatforms {
		p3 = w.Hosts[2]
	}

	d := &Deterministic{Kernel: k, Net: n, cfg: cfg}
	d.horizon = logical.Time(cfg.SettleTime) +
		logical.Time(int64(cfg.Frames+20)*int64(cfg.Period))
	envTimeout := logical.Duration(d.horizon) + logical.Duration(logical.Second)

	link := core.LinkConfig{Latency: cfg.Latency, ClockError: cfg.ClockError}
	tc := func(deadline logical.Duration) core.TransactorConfig {
		return core.TransactorConfig{Deadline: cfg.scaled(deadline), Link: link}
	}

	// --- Video Adapter: a sensor reactor. Frames arrive over the
	// proprietary protocol and are inserted into the reactor network with
	// a tag equal to the physical time of message reception.
	va, err := core.NewSWC(p2, ara.Config{Name: "video-adapter"})
	if err != nil {
		return nil, err
	}
	d.swcs = append(d.swcs, va)
	va.Start(core.StartOptions{KeepAlive: true, Timeout: envTimeout}, func(env *reactor.Environment) error {
		sk, err := va.Runtime().NewSkeleton(VideoFeedIface, PipelineInstance)
		if err != nil {
			return err
		}
		set, err := core.NewServerEventTransactor(env, va, sk, "frame", tc(cfg.VADeadline))
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		frames := reactor.NewPhysicalAction[[]byte](logic, "frames", 0)
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(out, set.In)
		logic.AddReaction("forward").Triggers(frames).Effects(out).Do(func(c *reactor.Ctx) {
			payload, _ := frames.Get(c)
			out.Set(c, payload)
		})
		// The raw camera endpoint feeds the physical action.
		ep := p2.MustBind(VideoPort)
		ep.OnReceive(func(dg simnet.Datagram) {
			frames.ScheduleAsync(dg.Payload, 0)
		})
		sk.Offer()
		// Track deadline violations of the sensor's forwarding chain.
		d.watch(setStats{set: set})
		return nil
	})

	// --- Preprocessing.
	pre, err := core.NewSWC(p2, ara.Config{Name: "preprocessing"})
	if err != nil {
		return nil, err
	}
	d.swcs = append(d.swcs, pre)
	preRand := k.Rand("apd.pre")
	pre.Start(core.StartOptions{KeepAlive: true, Timeout: envTimeout}, func(env *reactor.Environment) error {
		cet, err := core.NewClientEventTransactor(env, pre, VideoFeedIface, PipelineInstance, "frame", tc(cfg.PreDeadline))
		if err != nil {
			return err
		}
		sk, err := pre.Runtime().NewSkeleton(PreOutIface, PipelineInstance)
		if err != nil {
			return err
		}
		setLane, err := core.NewServerEventTransactor(env, pre, sk, "lane", tc(cfg.PreDeadline))
		if err != nil {
			return err
		}
		setFrame, err := core.NewServerEventTransactor(env, pre, sk, "frame", tc(cfg.PreDeadline))
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		laneOut := reactor.NewOutputPort[[]byte](logic, "laneOut")
		frameOut := reactor.NewOutputPort[[]byte](logic, "frameOut")
		reactor.Connect(cet.Out, in)
		reactor.Connect(laneOut, setLane.In)
		reactor.Connect(frameOut, setFrame.In)
		var tracker seqTracker
		logic.AddReaction("process").Triggers(in).Effects(laneOut, frameOut).Do(func(c *reactor.Ctx) {
			payload, _ := in.Get(c)
			frame, err := UnmarshalFrame(payload)
			if err != nil {
				panic(err)
			}
			d.Counters.DroppedPre += tracker.observe(frame.Seq)
			c.DoWork(gaussExec(preRand, cfg.PreExecMean, cfg.ExecSigma))
			lane := Preprocess(frame)
			laneOut.Set(c, MarshalLane(lane))
			frameOut.Set(c, payload)
		})
		sk.Offer()
		d.watch(setStats{set: setLane}, setStats{set: setFrame}, setStats{cet: cet})
		return nil
	})

	// --- Computer Vision: two inputs that must carry the same tag.
	cv, err := core.NewSWC(p3, ara.Config{Name: "computer-vision"})
	if err != nil {
		return nil, err
	}
	d.swcs = append(d.swcs, cv)
	cvRand := k.Rand("apd.cv")
	cv.Start(core.StartOptions{KeepAlive: true, Timeout: envTimeout}, func(env *reactor.Environment) error {
		cetFrame, err := core.NewClientEventTransactor(env, cv, PreOutIface, PipelineInstance, "frame", tc(cfg.CVDeadline))
		if err != nil {
			return err
		}
		cetLane, err := core.NewClientEventTransactor(env, cv, PreOutIface, PipelineInstance, "lane", tc(cfg.CVDeadline))
		if err != nil {
			return err
		}
		sk, err := cv.Runtime().NewSkeleton(CVOutIface, PipelineInstance)
		if err != nil {
			return err
		}
		set, err := core.NewServerEventTransactor(env, cv, sk, "vehicles", tc(cfg.CVDeadline))
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		frameIn := reactor.NewInputPort[[]byte](logic, "frame")
		laneIn := reactor.NewInputPort[[]byte](logic, "lane")
		out := reactor.NewOutputPort[[]byte](logic, "out")
		reactor.Connect(cetFrame.Out, frameIn)
		reactor.Connect(cetLane.Out, laneIn)
		reactor.Connect(out, set.In)
		var tracker seqTracker
		logic.AddReaction("process").Triggers(frameIn, laneIn).Effects(out).Do(func(c *reactor.Ctx) {
			fp, okF := frameIn.Get(c)
			lp, okL := laneIn.Get(c)
			if !okF || !okL {
				// "If only one input is received, this is considered an
				// error." — observable, counted, never silent.
				d.Counters.MismatchCV++
				return
			}
			frame, err := UnmarshalFrame(fp)
			if err != nil {
				panic(err)
			}
			lane, err := UnmarshalLane(lp)
			if err != nil {
				panic(err)
			}
			d.Counters.DroppedCV += tracker.observe(frame.Seq)
			if frame.Seq != lane.Seq {
				d.Counters.MismatchCV++
				return
			}
			c.DoWork(gaussExec(cvRand, cfg.CVExecMean, cfg.ExecSigma))
			out.Set(c, MarshalVehicles(DetectVehicles(frame, lane)))
		})
		sk.Offer()
		d.watch(setStats{set: set}, setStats{cet: cetFrame}, setStats{cet: cetLane})
		return nil
	})

	// --- EBA.
	eba, err := core.NewSWC(p3, ara.Config{Name: "eba"})
	if err != nil {
		return nil, err
	}
	d.swcs = append(d.swcs, eba)
	eba.Start(core.StartOptions{KeepAlive: true, Timeout: envTimeout}, func(env *reactor.Environment) error {
		cet, err := core.NewClientEventTransactor(env, eba, CVOutIface, PipelineInstance, "vehicles", tc(cfg.EBADeadline))
		if err != nil {
			return err
		}
		logic := env.NewReactor("logic")
		in := reactor.NewInputPort[[]byte](logic, "in")
		reactor.Connect(cet.Out, in)
		var tracker seqTracker
		var state EBAState
		decide := logic.AddReaction("decide").Triggers(in)
		decide.WithDeadline(cfg.scaled(cfg.EBADeadline), func(c *reactor.Ctx) {
			d.Counters.DeadlineViolations++
		})
		decide.Do(func(c *reactor.Ctx) {
			payload, _ := in.Get(c)
			vehicles, err := UnmarshalVehicles(payload)
			if err != nil {
				panic(err)
			}
			d.Counters.DroppedEBA += tracker.observe(vehicles.Seq)
			cmd := state.Decide(vehicles)
			d.Counters.FramesProcessed++
			d.BrakeSeq = append(d.BrakeSeq, *cmd)
			d.Latencies = append(d.Latencies, logical.Duration(c.PhysicalTime()-vehicles.Capture))
			d.TagTrace = append(d.TagTrace, c.Tag())
		})
		d.watch(setStats{cet: cet})
		return nil
	})

	// --- Video Provider (platform 1), identical camera model to the
	// baseline.
	scene := &Scene{}
	w.SpawnFrameSource(cameraSource(p2, cfg.Frames, cfg.Period, cfg.CameraJitterSigma, cfg.SettleTime),
		func(now logical.Time) []byte {
			frame := scene.Generate(now)
			d.Counters.FramesSent++
			return MarshalFrame(frame)
		})

	return d, nil
}

// setStats lets the harness collect transactor statistics at the end of
// a run without holding references in experiment code.
type setStats struct {
	set *core.ServerEventTransactor
	cet *core.ClientEventTransactor
}

func (d *Deterministic) watch(ss ...setStats) {
	d.watchers = append(d.watchers, ss...)
}

// Run executes the experiment and folds transactor statistics into the
// counters.
func (d *Deterministic) Run() *ErrorCounters {
	d.Kernel.Run(d.horizon)
	defer d.Kernel.Shutdown()
	for _, w := range d.watchers {
		var s core.TransactorStats
		switch {
		case w.set != nil:
			s = w.set.Stats()
		case w.cet != nil:
			s = w.cet.Stats()
		}
		d.Counters.DeadlineViolations += s.DeadlineViolations
		d.Counters.SafeToProcessViolations += s.SafeToProcessViolations
	}
	return &d.Counters
}
