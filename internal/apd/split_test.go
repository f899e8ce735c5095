package apd

import (
	"testing"

	"repro/internal/logical"
)

func TestSplitPlatformsZeroErrors(t *testing.T) {
	d, err := NewDeterministic(1, SplitDeterministicConfig(testFrames))
	if err != nil {
		t.Fatal(err)
	}
	c := d.Run()
	if c.TotalErrors() != 0 {
		t.Errorf("errors across platforms: %v", c)
	}
	if c.FramesProcessed != uint64(testFrames) {
		t.Errorf("processed %d/%d", c.FramesProcessed, testFrames)
	}
}

func TestSplitPlatformsBehaviourMatchesSinglePlatform(t *testing.T) {
	// The deployment (one platform vs two, skewed clocks) must not change
	// WHAT is computed — only timing metadata.
	single, err := NewDeterministic(3, DefaultDeterministicConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	single.Run()
	split, err := NewDeterministic(3, SplitDeterministicConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	split.Run()
	if len(single.BrakeSeq) != len(split.BrakeSeq) {
		t.Fatalf("decision counts differ: %d vs %d", len(single.BrakeSeq), len(split.BrakeSeq))
	}
	for i := range single.BrakeSeq {
		if single.BrakeSeq[i] != split.BrakeSeq[i] {
			t.Fatalf("decision %d differs between deployments: %+v vs %+v",
				i, single.BrakeSeq[i], split.BrakeSeq[i])
		}
	}
}

func TestSplitPlatformsBehaviourIdenticalAcrossSeeds(t *testing.T) {
	run := func(seed uint64) []BrakeCmd {
		d, err := NewDeterministic(seed, SplitDeterministicConfig(200))
		if err != nil {
			t.Fatal(err)
		}
		d.Run()
		return d.BrakeSeq
	}
	a, b := run(1), run(42)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSplitPlatformsLatencyIncludesClockError(t *testing.T) {
	d, err := NewDeterministic(1, SplitDeterministicConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if len(d.Latencies) == 0 {
		t.Fatal("no latencies")
	}
	var worst logical.Duration
	for _, l := range d.Latencies {
		if l > worst {
			worst = l
		}
	}
	// Bound: sum of deadlines and allowances ≈ 90.5ms (see splitConfig).
	if worst > 95*logical.Millisecond {
		t.Errorf("worst latency %v exceeds bound", worst)
	}
	if worst <= 70*logical.Millisecond {
		t.Errorf("worst latency %v should exceed the E=0 bound (clock error delay added)", worst)
	}
}

func TestSplitPlatformsHonestBoundsAbsorbSkew(t *testing.T) {
	// With honest D/L/E bounds, the deadline slack (D - WCET ≈ 5ms)
	// pads the safe-to-process condition: even a mildly underestimated E
	// cannot make a tag arrive in the receiver's physical past. No
	// violations — the conservative design tolerates bounded lies as
	// long as total slack covers them.
	cfg := SplitDeterministicConfig(200)
	cfg.ClockError = 10 * logical.Microsecond // lie about E, slack absorbs it
	d, err := NewDeterministic(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Run()
	if c.SafeToProcessViolations != 0 {
		t.Errorf("violations despite sufficient slack: %d", c.SafeToProcessViolations)
	}
	if c.TotalErrors() != 0 {
		t.Errorf("errors: %v", c)
	}
}

func TestSplitPlatformsExhaustedSlackDetected(t *testing.T) {
	// When the total slack (deadline margin + L + E) no longer covers the
	// real skew and latency, the violated assumption becomes visible as
	// counted safe-to-process violations — never silent reordering.
	cfg := SplitDeterministicConfig(400)
	cfg.DeadlineScale = 0.78                  // deadline ≈ execution time
	cfg.Latency = 200 * logical.Microsecond   // tight L
	cfg.ClockError = 10 * logical.Microsecond // tight E, real skew ~2ms
	violations := uint64(0)
	for seed := uint64(1); seed <= 4; seed++ {
		d, err := NewDeterministic(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := d.Run()
		violations += c.SafeToProcessViolations
	}
	if violations == 0 {
		t.Error("expected safe-to-process violations once slack is exhausted")
	}
}
