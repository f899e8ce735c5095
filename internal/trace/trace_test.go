package trace

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

func mkRecorder(events ...Record) *Recorder {
	r := NewRecorder(len(events) + 16)
	for _, e := range events {
		if e.Data != nil {
			r.RecordInput(e.Time, e.Component, e.Kind, e.Src, e.Data)
		} else {
			r.TraceEvent(e.Time, e.Component, e.Kind, []byte{byte(e.Digest)})
		}
	}
	return r
}

// Merge must order records by (time, component, seq) regardless of
// how they were split across recorders — the property that makes a
// federated trace byte-identical to the single-kernel trace.
func TestMergeCanonicalOrder(t *testing.T) {
	// One recorder with everything, in execution order.
	single := NewRecorder(16)
	single.TraceEvent(10, "b", KindCall, []byte{1})
	single.TraceEvent(10, "a", KindServe, []byte{2})
	single.TraceEvent(20, "a", KindServe, []byte{3})
	single.TraceEvent(20, "a", KindServe, []byte{4})

	// The same events split across two "partition" recorders.
	p0 := NewRecorder(16)
	p0.TraceEvent(10, "a", KindServe, []byte{2})
	p0.TraceEvent(20, "a", KindServe, []byte{3})
	p0.TraceEvent(20, "a", KindServe, []byte{4})
	p1 := NewRecorder(16)
	p1.TraceEvent(10, "b", KindCall, []byte{1})

	one := Merge(single)
	fed := Merge(p0, p1)
	if d := FirstDivergence(one, fed); d != nil {
		t.Fatalf("merged federated trace diverged from single trace: %s", d)
	}
	if !bytes.Equal(one.Encode(), fed.Encode()) {
		t.Fatal("encodings differ despite identical records")
	}
	// Canonical order: t=10 "a" before t=10 "b", then the two t=20
	// records in seq order.
	want := []string{"a", "b", "a", "a"}
	for i, w := range want {
		if one.Records[i].Component != w {
			t.Fatalf("record %d component = %s, want %s", i, one.Records[i].Component, w)
		}
	}
	if one.Records[2].Seq >= one.Records[3].Seq {
		t.Fatal("same-component same-time records out of seq order")
	}
}

// Merging overflowed recorders must sum their eviction counts and keep
// each ring's newest records, in canonical order, whichever way the
// rings wrapped.
func TestMergeWrappedRecorders(t *testing.T) {
	p0, p1 := NewRecorder(16), NewRecorder(16)
	for i := 1; i <= 20; i++ {
		p0.TraceEvent(logical.Time(2*i), "a", KindServe, []byte{byte(i)})
	}
	for i := 1; i <= 25; i++ {
		p1.TraceEvent(logical.Time(3*i), "b", KindCall, []byte{byte(i)})
	}
	tr := Merge(p0, p1)
	if tr.Truncated != 4+9 {
		t.Fatalf("Truncated = %d, want %d", tr.Truncated, 4+9)
	}
	// The survivors are seqs 5..20 of "a" and 10..25 of "b".
	var want []Record
	for i := 5; i <= 20; i++ {
		want = append(want, Record{Time: logical.Time(2 * i), Seq: uint64(i), Component: "a"})
	}
	for i := 10; i <= 25; i++ {
		want = append(want, Record{Time: logical.Time(3 * i), Seq: uint64(i), Component: "b"})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Time != want[j].Time {
			return want[i].Time < want[j].Time
		}
		return want[i].Component < want[j].Component
	})
	if len(tr.Records) != len(want) {
		t.Fatalf("merged %d records, want %d", len(tr.Records), len(want))
	}
	for i, w := range want {
		got := tr.Records[i]
		if got.Time != w.Time || got.Seq != w.Seq || got.Component != w.Component {
			t.Fatalf("record %d = (%v, %s, #%d), want (%v, %s, #%d)",
				i, got.Time, got.Component, got.Seq, w.Time, w.Component, w.Seq)
		}
		if got.Digest != Digest([]byte{byte(got.Seq)}) {
			t.Fatalf("record %d digest does not match its seq %d", i, got.Seq)
		}
	}
}

// Merge copies the records once, from the rings into one slice sized to
// their sum: the bytes it allocates stay within 25% of the records'
// own size.
func TestMergeAllocatesOnce(t *testing.T) {
	const perRecorder = 4096
	recs := []*Recorder{NewRecorder(perRecorder), NewRecorder(perRecorder)}
	for i, r := range recs {
		// One more record than fits, so the copy has to cross the wrap.
		for j := 0; j <= perRecorder; j++ {
			r.TraceEvent(logical.Time(j), string(rune('a'+i)), KindServe, nil)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := Merge(recs...)
	runtime.ReadMemStats(&after)
	if tr.Len() != 2*perRecorder || tr.Truncated != 2 {
		t.Fatalf("merged %d records (%d truncated), want %d (2)", tr.Len(), tr.Truncated, 2*perRecorder)
	}
	budget := 1.25 * float64(tr.Len()) * float64(unsafe.Sizeof(Record{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > budget {
		t.Errorf("Merge allocated %.0f bytes for %d records, budget %.0f", got, tr.Len(), budget)
	}
}

func TestFirstDivergence(t *testing.T) {
	a := Merge(mkRecorder(
		Record{Time: 1, Component: "x", Kind: KindCall, Digest: 1},
		Record{Time: 2, Component: "x", Kind: KindCall, Digest: 2},
	))
	b := Merge(mkRecorder(
		Record{Time: 1, Component: "x", Kind: KindCall, Digest: 1},
		Record{Time: 2, Component: "x", Kind: KindCall, Digest: 3},
	))
	if d := FirstDivergence(a, a); d != nil {
		t.Fatalf("trace diverges from itself: %s", d)
	}
	d := FirstDivergence(a, b)
	if d == nil {
		t.Fatal("differing digests not detected")
	}
	if d.Index != 1 || d.Time() != 2 || d.Component() != "x" || d.Kind() != KindCall {
		t.Fatalf("wrong divergence: %s", d)
	}

	// Prefix case: the longer trace's extra record is the divergence.
	short := &Trace{Records: a.Records[:1]}
	d = FirstDivergence(short, a)
	if d == nil || d.Index != 1 || d.A != nil || d.B == nil {
		t.Fatalf("prefix divergence wrong: %v", d)
	}
	if d.Component() != "x" || d.Kind() != KindCall {
		t.Fatalf("prefix divergence triple wrong: %s", d)
	}
}

// Binary and JSON encodings must round-trip every field, stored
// input bytes included.
func TestEncodeRoundTrips(t *testing.T) {
	rec := NewRecorder(16)
	rec.TraceEvent(5, "plat00.client", KindCall, []byte("payload"))
	rec.RecordInput(7, "server", KindRecv, "127.0.0.1:9", []byte{1, 2, 3})
	rec.TraceEvent(7, "server", KindSend, nil)
	tr := rec.Trace()
	tr.Truncated = 3 // exercise the field

	bin, err := Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d := FirstDivergence(tr, bin); d != nil || bin.Truncated != 3 {
		t.Fatalf("binary round trip changed the trace: %v (truncated=%d)", d, bin.Truncated)
	}

	js, err := tr.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := DecodeJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	if d := FirstDivergence(tr, fromJSON); d != nil || fromJSON.Truncated != 3 {
		t.Fatalf("JSON round trip changed the trace: %v", d)
	}

	// Corruption fails loudly.
	raw := tr.Encode()
	if _, err := Decode(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated encoding decoded without error")
	}
	if _, err := Decode(append(raw, 0)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
	raw[0] = 'X'
	if _, err := Decode(raw); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	rec := NewRecorder(16)
	rec.RecordInput(1, "c", KindRecv, "peer", []byte{9, 9})
	tr := rec.Trace()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := FirstDivergence(tr, got); d != nil {
		t.Fatalf("file round trip changed the trace: %s", d)
	}
}

// Ring overflow recycles the oldest slots and counts the loss.
func TestRecorderRingOverflow(t *testing.T) {
	r := NewRecorder(16)
	for i := 0; i < 40; i++ {
		r.TraceEvent(logical.Time(i), "c", KindCall, []byte{byte(i)})
	}
	if r.Len() != 16 {
		t.Fatalf("ring holds %d records, want 16", r.Len())
	}
	if r.Dropped() != 24 {
		t.Fatalf("dropped = %d, want 24", r.Dropped())
	}
	tr := r.Trace()
	if tr.Truncated != 24 {
		t.Fatalf("trace.Truncated = %d", tr.Truncated)
	}
	// The survivors are the newest records, seqs intact.
	if tr.Records[0].Seq != 25 || tr.Records[0].Time != 24 {
		t.Fatalf("oldest survivor = %s, want seq 25 at t=24", tr.Records[0].String())
	}
}

// The kernel hook: Trace forwards to the installed tracer with the
// kernel's current time; without a tracer it is a no-op.
func TestKernelTraceHook(t *testing.T) {
	k := des.NewKernel(1)
	k.Trace("c", KindCall, nil) // no tracer: must not panic
	rec := NewRecorder(16)
	k.SetTracer(rec)
	k.At(10, func() { k.Trace("c", KindCall, []byte{1}) })
	k.At(20, func() { k.Trace("c", KindServe, []byte{2}) })
	k.RunAll()
	tr := rec.Trace()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", tr.Len())
	}
	if tr.Records[0].Time != 10 || tr.Records[1].Time != 20 {
		t.Fatalf("kernel times not stamped: %s / %s", tr.Records[0].String(), tr.Records[1].String())
	}
	if tr.Records[0].Seq != 1 || tr.Records[1].Seq != 2 {
		t.Fatal("per-component sequence not monotone")
	}
}

// WithoutTimes zeroes times but preserves order and content.
func TestWithoutTimes(t *testing.T) {
	rec := NewRecorder(16)
	rec.TraceEvent(5, "a", KindCall, []byte{1})
	rec.TraceEvent(9, "a", KindCall, []byte{2})
	tr := rec.Trace()
	stripped := tr.WithoutTimes()
	if stripped.Records[0].Time != 0 || stripped.Records[1].Time != 0 {
		t.Fatal("times survive WithoutTimes")
	}
	if tr.Records[0].Time != 5 {
		t.Fatal("WithoutTimes mutated the original")
	}
	if stripped.Records[0].Digest != tr.Records[0].Digest {
		t.Fatal("WithoutTimes changed record content")
	}
}

// The replayer injects stored inputs in order and captures sends.
func TestReplayerInjectsAndCaptures(t *testing.T) {
	// Record two inputs (same wall nanosecond — injection must keep
	// capture order) through a recording endpoint facade.
	rec := NewRecorder(16)
	msg := func(b byte) []byte {
		m := &someip.Message{Service: 0x2102, Method: 1, Type: someip.TypeRequest, Payload: []byte{b}}
		return m.Marshal()
	}
	rec.RecordInput(100, "server", KindRecv, "peer:1", msg(1))
	rec.RecordInput(100, "server", KindRecv, "peer:1", msg(2))

	k := des.NewKernel(1)
	out := NewRecorder(16)
	rp := NewReplayer(k, rec.Trace(), out)
	if rp.Inputs() != 2 {
		t.Fatalf("replayer sees %d inputs, want 2", rp.Inputs())
	}
	var order []byte
	rp.OnMessage(func(src someip.Addr, m *someip.Message) {
		order = append(order, m.Payload[0])
		// Echo straight back through the endpoint.
		if err := rp.Send(src, &someip.Message{
			Service: m.Service, Method: m.Method,
			Type: someip.TypeResponse, Payload: m.Payload,
		}); err != nil {
			t.Error(err)
		}
	})
	if err := rp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rp.Start(); err == nil {
		t.Fatal("double Start not rejected")
	}
	k.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("injection order = %v", order)
	}
	tr := out.Trace()
	if tr.Len() != 4 {
		t.Fatalf("replayed trace has %d records, want 4 (2 recv + 2 send)", tr.Len())
	}
	sends := tr.Filter(KindSend)
	if sends.Len() != 2 {
		t.Fatalf("captured %d sends", sends.Len())
	}
	sent, recv, _ := rp.Stats()
	if sent != 2 || recv != 2 {
		t.Fatalf("stats = (%d, %d)", sent, recv)
	}
}

// A recording endpoint must be transparent: traffic flows through the
// wrapped endpoint unchanged while inputs are stored in full and
// outputs as digests.
func TestRecordingEndpointTransparent(t *testing.T) {
	inner := &fakeEndpoint{}
	rec := NewRecorder(16)
	now := logical.Time(0)
	ep := NewRecordingEndpoint(inner, rec, "server", func() logical.Time { now++; return now })

	var got *someip.Message
	ep.OnMessage(func(src someip.Addr, m *someip.Message) { got = m })

	req := &someip.Message{Service: 1, Method: 2, Type: someip.TypeRequest, Payload: []byte{7},
		Tag: &logical.Tag{Time: 42}}
	inner.deliver(replayAddr("peer"), req)
	if got == nil || got.Payload[0] != 7 {
		t.Fatal("inbound message not forwarded")
	}
	resp := &someip.Message{Service: 1, Method: 2, Type: someip.TypeResponse, Payload: []byte{8}}
	if err := ep.Send(replayAddr("peer"), resp); err != nil {
		t.Fatal(err)
	}
	if inner.sentMsgs != 1 {
		t.Fatal("outbound message not forwarded")
	}

	tr := rec.Trace()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", tr.Len())
	}
	in, out := &tr.Records[0], &tr.Records[1]
	if in.Kind != KindRecv || in.Data == nil || in.Src != "peer" {
		t.Fatalf("input record wrong: %s", in)
	}
	if m, err := someip.UnmarshalTagged(in.Data); err != nil || m.Tag == nil || m.Tag.Time != 42 {
		t.Fatalf("stored input does not round-trip the tag: %v %v", m, err)
	}
	if out.Kind != KindSend || out.Data != nil {
		t.Fatalf("output record wrong: %s", out)
	}
	if out.Digest != Digest(resp.Marshal()) {
		t.Fatal("output digest does not cover the marshaled message")
	}
}

// fakeEndpoint is a minimal someip.Endpoint for wrapper tests.
type fakeEndpoint struct {
	handler  func(src someip.Addr, m *someip.Message)
	sentMsgs int
}

func (f *fakeEndpoint) Send(dst someip.Addr, m *someip.Message) error { f.sentMsgs++; return nil }
func (f *fakeEndpoint) OnMessage(fn func(src someip.Addr, m *someip.Message)) {
	f.handler = fn
}
func (f *fakeEndpoint) OnError(fn func(src someip.Addr, err error)) {}
func (f *fakeEndpoint) LocalAddr() someip.Addr                      { return replayAddr("fake") }
func (f *fakeEndpoint) Tagged() bool                                { return true }
func (f *fakeEndpoint) Stats() (uint64, uint64, uint64)             { return 0, 0, 0 }
func (f *fakeEndpoint) Close() error                                { return nil }
func (f *fakeEndpoint) deliver(src someip.Addr, m *someip.Message) {
	if f.handler != nil {
		f.handler(src, m)
	}
}
