package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one world share a world id;
// parent is the id of the enclosing span, -1 for a world's root.
type span struct {
	name   string
	id     int
	parent int
	world  int
	start  time.Duration
	end    time.Duration
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced mode: every method is a no-op, so the measured code path
// is the same with and without tracing.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (l *spanLog) begin(name string, parent, world int) int {
	if l == nil {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, world: world, start: time.Since(l.origin)})
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].end = time.Since(l.origin)
}

// durations returns the durations, in seconds, of every closed span
// with the given name.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.name == name && s.end > 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// chromeEvent is one entry of the Chrome Trace Event format, which
// Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome Trace Event JSON: one row
// (tid) per world, each span a complete ("X") event carrying its id and
// its parent's id. The host fingerprint rides along as metadata.
func (l *spanLog) writeChrome(path string, names map[int]string, meta map[string]any) error {
	events := make([]chromeEvent, 0, len(l.spans)+len(names))
	for tid, name := range names {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	for _, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.name,
			Cat:  "perfbench",
			Ph:   "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.world,
			Args: map[string]any{"span": s.id, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
