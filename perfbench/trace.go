package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one HTTP
// request share Req (the X-Request-ID); Parent is the index of the
// span that caused this one, or -1.
type span struct {
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write dumps them when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check
// per boundary.
type tracer struct {
	now   func() time.Duration
	mu    sync.Mutex
	spans []span
}

func newTracer(now func() time.Duration) *tracer { return &tracer{now: now} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	return t.spans[id].dur()
}

// do runs f inside a span and returns f's duration.
func (t *tracer) do(name string, parent int, f func()) time.Duration {
	id := t.begin(name, "", parent)
	f()
	return t.end(id)
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// linkByRequest sets each span's parent from the request chain: for
// every request ID, the span named chain[i+1] becomes a child of the
// span named chain[i]. The HTTP layers run in different handlers, so
// only the shared X-Request-ID joins them.
func linkByRequest(spans []span, chain []string) {
	level := map[string]int{}
	for i, n := range chain {
		level[n] = i
	}
	byReq := map[string][]int{}
	for i, s := range spans {
		if _, ok := level[s.Name]; ok && s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, ids := range byReq {
		at := make([]int, len(chain))
		for i := range at {
			at[i] = -1
		}
		for _, id := range ids {
			at[level[spans[id].Name]] = id
		}
		for i := 1; i < len(chain); i++ {
			if at[i] >= 0 && at[i-1] >= 0 {
				spans[at[i]].Parent = at[i-1]
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once,
// and child time outside the parent's interval is ignored).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered := time.Duration(0)
		curA, curB := time.Duration(-1), time.Duration(-1)
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[i] = s.dur() - covered
	}
	return out
}

// selfMillis collects the self times, in ms, of every span named name.
func selfMillis(spans []span, self []time.Duration, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// durMillis collects the durations, in ms, of every span named name.
func durMillis(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// writeTrace writes the spans and the host fingerprint as one JSON
// document.
func writeTrace(path string, host hostInfo, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
