// Package trace is the deterministic trace subsystem: a first-class,
// inspectable representation of "what the run did" that turns the
// repo's determinism gates from byte-equality oracles into localized
// diagnoses, and the paper's pure-function claim into a replayable
// artifact.
//
// Three capabilities layer on the existing seams:
//
//   - Recording. A Recorder attaches to a des.Kernel (one per
//     partition kernel under a des.Federation) through the kernel's
//     Tracer hook and captures logical events — (logical time,
//     per-component sequence number, component label, event kind,
//     payload digest) — into a pooled ring buffer. The canonical
//     merged trace of a run is byte-identical across GOMAXPROCS
//     values and partition counts: records carry no kernel-global
//     state, and Merge orders them by (time, component, sequence), a
//     total order every execution mode agrees on.
//
//   - Divergence diagnosis. FirstDivergence(a, b) names the first
//     event at which two traces disagree — time, component, kind,
//     digest — so a failing determinism gate can say *where* two runs
//     parted instead of dumping two unequal reports.
//
//   - Record/replay. RecordingEndpoint captures the tagged inputs of
//     a live (real-socket) run at the someip.Endpoint seam, a trace
//     file persists them, and Replayer re-injects them into a fresh
//     simulated kernel — the DEAR application, being a pure function
//     of its tagged inputs, must reproduce the recorded outputs.
//
// Traces have two interchangeable encodings: a deterministic binary
// format (Encode/Decode, WriteFile/ReadFile) for artifacts and CI,
// and JSON (EncodeJSON/DecodeJSON) for human inspection. Payloads are
// digested, not stored, except for records captured as re-injectable
// inputs (RecordInput, RecordingEndpoint's receive path), which keep
// the full marshaled bytes — replay needs them.
package trace

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/logical"
)

// Event kinds used by the built-in instrumentation. Kinds are open —
// any string works — but the endpoint wrappers and the scenario
// engine agree on these.
const (
	// KindRecv marks an inbound message captured at an endpoint seam.
	// Recv records store the full marshaled message so it can be
	// re-injected by a Replayer.
	KindRecv = "recv"
	// KindSend marks an outbound message at an endpoint seam
	// (digest-only).
	KindSend = "send"
	// KindCall marks a completed client call in the scenario engine.
	KindCall = "call"
	// KindCallErr marks an observable client-call failure.
	KindCallErr = "call-err"
	// KindServe marks a served compute invocation.
	KindServe = "serve"
	// KindNoise marks a delivered local-load datagram in the scenario
	// engine (its record time carries the seeded delivery timing).
	KindNoise = "noise"
	// KindReq marks a client call issuance in the scenario engine — the
	// open side of the request/response pair the responded-within
	// monitor matches against a later KindCall or KindCallErr of the
	// same component.
	KindReq = "req"
	// KindCrash marks a platform going down (the open side of a
	// lifecycle obligation).
	KindCrash = "crash"
	// KindRestart marks a crashed platform coming back up.
	KindRestart = "restart"
	// KindBind marks a platform's service (re-)offer — the event that
	// discharges a rebound-within obligation.
	KindBind = "bind"
	// KindCorrupt marks an input that failed an integrity check. The
	// DEAR model refuses corrupt inputs structurally, so a correct run
	// never emits one; the no-silent-corruption monitor watches for the
	// sentinel.
	KindCorrupt = "corrupt"
)

// Record is one logical event of a trace. Records are mode-
// independent by construction: every field is a pure function of the
// emitting component's own behaviour — logical time, the component's
// private sequence counter, the event kind and the payload digest —
// never of kernel-global counters (event sequence numbers, partition
// ids), which differ between execution modes.
type Record struct {
	// Time is the logical (simulated or wall-derived) time of the
	// event in nanoseconds.
	Time logical.Time `json:"atNs"`
	// Seq is the component-local sequence number, starting at 1 and
	// incrementing per record of the same component. It breaks ties
	// between same-time records of one component and is identical in
	// every execution mode.
	Seq uint64 `json:"seq"`
	// Component labels the emitting component (e.g. "plat03.client").
	// A component must live on exactly one kernel of a federation.
	Component string `json:"component"`
	// Kind classifies the event (see the Kind constants).
	Kind string `json:"kind"`
	// Digest is the FNV-1a digest of the event payload.
	Digest uint64 `json:"digest"`
	// Src is the source address of a captured input (recv records
	// only).
	Src string `json:"src,omitempty"`
	// Data holds the full marshaled bytes of a captured input so a
	// Replayer can re-inject it. Digest-only records leave it nil.
	Data []byte `json:"data,omitempty"`
}

// String renders the record for diagnostics.
func (r *Record) String() string {
	extra := ""
	if r.Src != "" {
		extra = " src=" + r.Src
	}
	if r.Data != nil {
		extra += fmt.Sprintf(" data=%dB", len(r.Data))
	}
	return fmt.Sprintf("t=%d %s#%d %s digest=%016x%s",
		int64(r.Time), r.Component, r.Seq, r.Kind, r.Digest, extra)
}

// equal reports full record equality, stored input bytes included.
func (r *Record) equal(o *Record) bool {
	return r.Time == o.Time && r.Seq == o.Seq && r.Component == o.Component &&
		r.Kind == o.Kind && r.Digest == o.Digest && r.Src == o.Src &&
		bytes.Equal(r.Data, o.Data)
}

// Trace is a canonical logical event trace: records sorted by (time,
// component, sequence) — a total order (component+seq is unique) that
// every execution mode agrees on, so two behaviourally identical runs
// produce byte-identical encoded traces regardless of partition count
// or GOMAXPROCS.
type Trace struct {
	// Records are the events in canonical order.
	Records []Record `json:"records"`
	// Truncated counts records evicted from ring buffers before the
	// snapshot was taken (0 = complete). A truncated trace is still
	// canonical but mode-independence only holds for complete traces.
	Truncated uint64 `json:"truncated,omitempty"`
}

// sortCanonical establishes the canonical (time, component, seq)
// order in place.
func sortCanonical(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Seq < b.Seq
	})
}

// Merge combines the snapshots of several recorders — typically one
// per partition kernel of a federation — into one canonical trace.
// Because each component lives on exactly one kernel and records only
// component-local state, the merged trace is byte-identical to the
// trace of the same scenario run on a single kernel. The records are
// copied once, from each ring into a slice sized to their sum.
func Merge(recorders ...*Recorder) *Trace {
	t := &Trace{}
	total := 0
	for _, r := range recorders {
		total += r.Len()
	}
	// An empty merge keeps Records nil, which EncodeJSON writes as null.
	if total > 0 {
		t.Records = make([]Record, 0, total)
	}
	for _, r := range recorders {
		var dropped uint64
		t.Records, dropped = r.appendRecords(t.Records)
		t.Truncated += dropped
	}
	sortCanonical(t.Records)
	return t
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Filter returns a new trace holding only records of the given kind,
// preserving canonical order.
func (t *Trace) Filter(kind string) *Trace {
	out := &Trace{Truncated: t.Truncated}
	for i := range t.Records {
		if t.Records[i].Kind == kind {
			out.Records = append(out.Records, t.Records[i])
		}
	}
	return out
}

// WithoutTimes returns a copy of the trace with every record's time
// zeroed (canonical record order preserved). Replay comparisons use
// it: a replayed run reproduces the recorded event *contents and
// order*, while event times shift from wall-derived to simulated.
func (t *Trace) WithoutTimes() *Trace {
	out := &Trace{
		Records:   append([]Record(nil), t.Records...),
		Truncated: t.Truncated,
	}
	for i := range out.Records {
		out.Records[i].Time = 0
	}
	return out
}

// Divergence names the first event at which two traces disagree. A
// and B are the differing records of the respective traces; one of
// them is nil when the shorter trace is a strict prefix of the
// longer.
type Divergence struct {
	// Index is the position (in canonical order) of the first
	// disagreement.
	Index int
	// A is the first trace's record at Index (nil when trace A ended).
	A *Record
	// B is the second trace's record at Index (nil when trace B ended).
	B *Record
}

// Time returns the logical time of the divergent event (the earlier
// of the two sides when both exist).
func (d *Divergence) Time() logical.Time {
	switch {
	case d.A == nil:
		return d.B.Time
	case d.B == nil:
		return d.A.Time
	case d.B.Time < d.A.Time:
		return d.B.Time
	default:
		return d.A.Time
	}
}

// Component returns the component label of the divergent event.
func (d *Divergence) Component() string {
	if d.A != nil {
		return d.A.Component
	}
	return d.B.Component
}

// Kind returns the kind of the divergent event.
func (d *Divergence) Kind() string {
	if d.A != nil {
		return d.A.Kind
	}
	return d.B.Kind
}

// String renders the divergence for gate failure messages: the
// (time, component, kind) triple plus both sides' records.
func (d *Divergence) String() string {
	side := func(r *Record) string {
		if r == nil {
			return "<trace ended>"
		}
		return r.String()
	}
	return fmt.Sprintf("event #%d: a: %s | b: %s", d.Index, side(d.A), side(d.B))
}

// FirstDivergence compares two canonical traces record by record and
// returns the first disagreement, or nil when the traces are
// identical (same records, stored input bytes included). Two runs of
// the same scenario with the same seed must never diverge; a
// perturbed seed yields a concrete (time, component, kind) triple.
func FirstDivergence(a, b *Trace) *Divergence {
	n := len(a.Records)
	if len(b.Records) < n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		if !a.Records[i].equal(&b.Records[i]) {
			return &Divergence{Index: i, A: &a.Records[i], B: &b.Records[i]}
		}
	}
	if len(a.Records) > n {
		return &Divergence{Index: n, A: &a.Records[n]}
	}
	if len(b.Records) > n {
		return &Divergence{Index: n, B: &b.Records[n]}
	}
	return nil
}
