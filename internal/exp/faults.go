package exp

import (
	"fmt"

	"repro/internal/apd"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// --- Experiment E11: deterministic fault injection & recovery ---
//
// The paper's core claim is that DEAR turns nondeterministic failures
// into *observable, never silent* errors. E1–E10 only exercise benign
// networks; E11 puts both pipeline variants and the federated mesh
// under a seeded, deterministic fault schedule (simnet.FaultPlan):
// background loss, loss windows, a network partition, jitter bursts,
// and a platform crash with restart and SD-style re-offer.
//
// Two sub-experiments:
//
//  1. Pipeline contrast (RunFaultPipeline): the stock brake assistant
//     detects input mismatches and *keeps computing on the corrupt
//     pair* (CorruptProcessed > 0) — silent corruption reaching the
//     actuator. The DEAR assistant refuses every such activation
//     (CorruptProcessed == 0); all of its failures surface as counted,
//     observable errors (missing inputs, deadline and safe-to-process
//     violations).
//
//  2. Faulted federated mesh (RunFaultMesh / FaultMeshConfig): the E10
//     scenario under nonzero drop rates, a partition window and a
//     crash/restart, with per-call timeouts making every loss
//     observable. The determinism gate is unchanged: byte-identical
//     canonical reports for every seed, partition count and GOMAXPROCS
//     value — faults do not cost the "same seed, same bytes" property,
//     because every packet fate is a counter-based pure function.

// FaultPipelineResult contrasts the two pipeline variants under the
// same fault schedule.
type FaultPipelineResult struct {
	Frames   int
	Plan     *simnet.FaultPlan
	Baseline apd.ErrorCounters
	Dear     apd.ErrorCounters
	// BaselineDecisions / DearDecisions count brake decisions actually
	// taken under faults.
	BaselineDecisions int
	DearDecisions     int
}

// Table renders the contrast.
func (r *FaultPipelineResult) Table() *metrics.Table {
	t := metrics.NewTable("pipeline", "decisions", "corrupt processed (silent)",
		"mismatches", "dropped", "deadline", "safe-to-process")
	b, d := r.Baseline, r.Dear
	t.Row("baseline (stock APD)", r.BaselineDecisions, b.CorruptProcessed,
		b.MismatchCV, b.DroppedPre+b.DroppedCV+b.DroppedEBA, b.DeadlineViolations, b.SafeToProcessViolations)
	t.Row("DEAR (deterministic)", r.DearDecisions, d.CorruptProcessed,
		d.MismatchCV, d.DroppedPre+d.DroppedCV+d.DroppedEBA, d.DeadlineViolations, d.SafeToProcessViolations)
	return t
}

// DefaultPipelineFaultPlan builds the E11 fault schedule for a
// frames-long brake-assistant run: a jitter burst early on (reordering
// — the silent-corruption trigger for one-slot buffers), a lossy window
// mid-run, a one-second full network partition at ~70% of the run, and
// light background loss throughout. Host selectors are wildcards, so
// the identical plan applies to both deployments (camera link in the
// baseline; camera plus inter-SWC links in the split DEAR deployment).
func DefaultPipelineFaultPlan(frames int) *simnet.FaultPlan {
	period := 50 * logical.Millisecond
	start := logical.Time(300 * logical.Millisecond) // settle time
	span := logical.Duration(frames) * period
	at := func(frac float64) logical.Time {
		return start + logical.Time(float64(span)*frac)
	}
	return &simnet.FaultPlan{
		Seed:     0xE11,
		DropRate: 0.01,
		Jitter: []simnet.JitterBurst{{
			From: at(0.05), To: at(0.35), Extra: 30 * logical.Millisecond,
		}},
		Loss: []simnet.LossWindow{{
			From: at(0.45), To: at(0.60), Rate: 0.25,
		}},
		Partitions: []simnet.PartitionWindow{{
			From: at(0.70), To: at(0.70) + logical.Time(logical.Second),
		}},
	}
}

// RunFaultPipeline executes the brake assistant in both variants under
// the same fault schedule. The DEAR variant runs split across platforms
// (CV and EBA on platform 3) so the fault plan exercises the inter-SWC
// path, with the timing bounds of the split deployment.
func RunFaultPipeline(seed uint64, frames int) (*FaultPipelineResult, error) {
	plan := DefaultPipelineFaultPlan(frames)
	res := &FaultPipelineResult{Frames: frames, Plan: plan}

	bcfg := apd.DefaultBaselineConfig(frames)
	bcfg.Faults = plan
	bcfg.SplitPlatforms = true
	b, err := apd.NewBaseline(seed, bcfg)
	if err != nil {
		return nil, err
	}
	res.Baseline = *b.Run()
	res.BaselineDecisions = len(b.BrakeSeq)

	dcfg := apd.SplitDeterministicConfig(frames)
	dcfg.Faults = plan
	d, err := apd.NewDeterministic(seed, dcfg)
	if err != nil {
		return nil, err
	}
	res.Dear = *d.Run()
	res.DearDecisions = len(d.BrakeSeq)
	return res, nil
}

// DefaultFaultMeshConfig builds the E11 mesh scenario for n platforms:
// the E10 topology under background loss, a lossy window, a jitter
// burst, a mid-run partition separating the first half of the platforms
// from the second, and a crash of platform 1 followed by a restart with
// re-offer and a reborn client. Calls carry timeouts so every loss is
// observable in the canonical report.
func DefaultFaultMeshConfig(n int) MeshConfig {
	cfg := DefaultMeshConfig(n)
	cfg.Rounds = 30
	cfg.CallTimeout = 5 * logical.Millisecond
	half := make([]uint16, 0, n/2)
	for i := 0; i < n/2; i++ {
		half = append(half, MeshHostID(i))
	}
	ms := func(v int64) logical.Time { return logical.Time(v) * logical.Time(logical.Millisecond) }
	cfg.Faults = &simnet.FaultPlan{
		Seed:     0xE11,
		DropRate: 0.02,
		Loss: []simnet.LossWindow{{
			From: ms(20), To: ms(40), Rate: 0.3,
		}},
		Jitter: []simnet.JitterBurst{{
			From: 0, To: ms(50), Extra: 300 * logical.Microsecond,
		}},
		Partitions: []simnet.PartitionWindow{{
			From: ms(70), To: ms(80), GroupA: half,
		}},
	}
	cfg.Crash = &CrashPlan{
		Platform:     1,
		At:           ms(30),
		RestartAt:    ms(60),
		RebornRounds: 10,
	}
	return cfg
}

// RunFaultMesh executes the E11 mesh scenario once; it is RunMesh under
// DefaultFaultMeshConfig-style configuration and shares its determinism
// contract.
func RunFaultMesh(seed uint64, cfg MeshConfig, partitions int) (*MeshResult, error) {
	return RunMesh(seed, cfg, partitions)
}

// FaultsResult bundles the two E11 sub-experiments.
type FaultsResult struct {
	Pipeline *FaultPipelineResult
	Mesh     *MeshResult
}

// RunFaults executes E11: the pipeline contrast and one federated
// faulted mesh run. It errors when the experiment's headline claims do
// not hold: the baseline must exhibit silent corruption, the DEAR
// pipeline must exhibit none while still reporting observable errors
// and making progress through the fault schedule.
func RunFaults(seed uint64, frames int, meshCfg MeshConfig, partitions int) (*FaultsResult, error) {
	pipe, err := RunFaultPipeline(seed, frames)
	if err != nil {
		return nil, err
	}
	if pipe.Baseline.CorruptProcessed == 0 {
		return nil, fmt.Errorf("exp: baseline processed no corrupt activations under faults — scenario too benign")
	}
	if pipe.Dear.CorruptProcessed != 0 {
		return nil, fmt.Errorf("exp: DEAR pipeline processed %d corrupt activations — silent corruption must be structurally impossible", pipe.Dear.CorruptProcessed)
	}
	if pipe.Dear.TotalErrors() == 0 {
		return nil, fmt.Errorf("exp: DEAR pipeline observed no errors under faults — fault plan not effective")
	}
	if pipe.Dear.FramesProcessed == 0 {
		return nil, fmt.Errorf("exp: DEAR pipeline made no progress under faults")
	}
	mesh, err := RunFaultMesh(seed, meshCfg, partitions)
	if err != nil {
		return nil, err
	}
	return &FaultsResult{Pipeline: pipe, Mesh: mesh}, nil
}

// RunFaultsDeterminismCheck is the E11 determinism gate: the E10 gate's
// methodology (byte-identical canonical reports for every seed across
// single-kernel and all federated partition counts) applied to the
// faulted scenario — nonzero drop rate, partition window, crash and
// restart included. It also asserts the fault plan has teeth: every
// per-seed report must record observable errors.
func RunFaultsDeterminismCheck(seedBase uint64, seeds int, cfg MeshConfig, partitionCounts []int) ([]string, error) {
	if cfg.Faults == nil || cfg.Faults.DropRate == 0 {
		return nil, fmt.Errorf("exp: E11 gate requires a fault plan with nonzero drop rate")
	}
	refs, reports, err := runMeshDeterminism(seedBase, seeds, cfg, partitionCounts)
	if err != nil {
		return reports, err
	}
	for s, ref := range refs {
		calls, errs := 0, 0
		for _, row := range ref.Rows {
			calls += row.Calls
			errs += row.Errors
		}
		if errs == 0 {
			return reports, fmt.Errorf("exp: seed %d recorded no observable errors — E11 gate is vacuous:\n%s",
				seedBase+uint64(s), reports[s])
		}
		if calls == 0 {
			return reports, fmt.Errorf("exp: seed %d made no successful calls under faults:\n%s",
				seedBase+uint64(s), reports[s])
		}
	}
	return reports, nil
}
