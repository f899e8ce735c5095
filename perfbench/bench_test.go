package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestCorruptedWorldCountsAsFailed shows the correctness gate is not
// vacuous: a mesh-noise world whose servers flag every request as
// corrupt trips the no-silent-corruption monitor, and the run counts
// every such world as failed.
func TestCorruptedWorldCountsAsFailed(t *testing.T) {
	w := findWorkload("mesh-noise")
	ref, err := w.reference(1)
	if err != nil {
		t.Fatal(err)
	}
	if s := measure(w, 1, ref, nil, 0); s.err != nil {
		t.Fatalf("clean world failed the gate: %v", s.err)
	}
	restore := scenario.EnableCorruptionForTesting()
	defer restore()
	res := plainRun(w, 1, ref, 0, io.Discard, io.Discard)
	if res.Correct || res.Failed != res.Attempted || res.Attempted < minWorlds {
		t.Fatalf("corrupted run: correct=%t attempted=%d failed=%d; want every world failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// lastResult runs the command and decodes its last output line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: %+v", args, res)
	}
	return res
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for name, m := range got {
		names = append(names, name)
		if unit, ok := want[name]; !ok {
			t.Errorf("metric %s is not in BENCHMARK.json", name)
		} else if unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("BENCHMARK.json metric %s is not reported", name)
		}
	}
	sort.Strings(names)
	t.Logf("metrics: %s", strings.Join(names, " "))
}

// TestOutputMatchesBenchmarkJSON runs both modes briefly and checks the
// reported metrics, their units and the workloads against
// BENCHMARK.json, and that the span export is well-formed Chrome Trace
// Event JSON whose parents exist.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if got := findWorkload(w.Name); got == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		} else if got.why != w.Why {
			t.Errorf("workload %s: why differs from BENCHMARK.json", w.Name)
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}

	dir := t.TempDir()
	common := []string{"--workload", "brake-dear", "--seed", "3", "--seconds", "0.01", "--out", dir}
	checkMetrics(t, lastResult(t, append(common, "--trace", "0")...).Metrics, e2e)
	checkMetrics(t, lastResult(t, append(common, "--trace", "1")...).Metrics, layer)

	raw, err := os.ReadFile(filepath.Join(dir, "spans-brake-dear-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	ids := map[float64]bool{-1: true}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			ids[e.Args["span"].(float64)] = true
			names[e.Name] = true
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && !ids[e.Args["parent"].(float64)] {
			t.Errorf("span %s has an unknown parent", e.Name)
		}
	}
	for _, want := range []string{"world", "build", "run", "verify", "probes", "des.fire_ns"} {
		if !names[want] {
			t.Errorf("no %s span exported", want)
		}
	}
}
