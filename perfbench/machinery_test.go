package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{200, 95, true},
		{199, 95, false},
		{20, 50, true},
		{19, 50, false},
	}
	for _, c := range cases {
		if got := supports(c.n, c.p); got != c.want {
			t.Errorf("supports(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := samplesFor(99); got != 1000 {
		t.Errorf("samplesFor(99) = %d, want 1000", got)
	}
	if got := samplesFor(95); got != 200 {
		t.Errorf("samplesFor(95) = %d, want 200", got)
	}
	if got := highestSupported(400); got != 97.5 {
		t.Errorf("highestSupported(400) = %g, want 97.5", got)
	}
	if got := highestSupported(10); got != 0 {
		t.Errorf("highestSupported(10) = %g, want 0 (no percentile supported)", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort
	}
	if got := percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %g, want 95", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// fakeClock is a manual clock: sleeping jumps to the wake-up time, and
// the fake server advances time by its service time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// schedule returns n arrivals every gap.
func schedule(n int, gap time.Duration) []arrival {
	s := make([]arrival, n)
	for i := range s {
		s[i].Due = time.Duration(i) * gap
	}
	return s
}

func runFake(sched []arrival, service time.Duration) []outcome {
	clk := &fakeClock{}
	return runOpenLoop(clk, sched, 1, func(int, arrival) bool {
		clk.advance(service)
		return true
	})
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Due every 1ms, served in 5ms on one connection: request i waits
	// for the i before it, and its latency counts that wait.
	outs := runFake(schedule(3, time.Millisecond), 5*time.Millisecond)
	wantLat := []time.Duration{5, 9, 13}
	wantLate := []time.Duration{0, 4, 8}
	for i, o := range outs {
		if o.latency() != wantLat[i]*time.Millisecond {
			t.Errorf("request %d latency %v, want %v", i, o.latency(), wantLat[i]*time.Millisecond)
		}
		if o.late() != wantLate[i]*time.Millisecond {
			t.Errorf("request %d late %v, want %v", i, o.late(), wantLate[i]*time.Millisecond)
		}
	}
	// An idle server: every request is sent on time.
	for i, o := range runFake(schedule(3, 10*time.Millisecond), time.Millisecond) {
		if o.late() != 0 || o.latency() != time.Millisecond {
			t.Errorf("idle request %d: late %v latency %v, want 0 and 1ms", i, o.late(), o.latency())
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	// 100 requests due every 2ms. Served in 3ms the server falls
	// behind; served in 1ms it keeps up.
	over := runFake(schedule(100, 2*time.Millisecond), 3*time.Millisecond)
	if s := backlogSeries(over, 40); !backlogGrowing(s, 2) {
		t.Errorf("overloaded backlog %v not flagged as growing", s)
	}
	under := runFake(schedule(100, 2*time.Millisecond), time.Millisecond)
	if s := backlogSeries(under, 40); backlogGrowing(s, 2) || maxInt(s) > 1 {
		t.Errorf("stable backlog %v flagged as growing", s)
	}
	outs := []outcome{{Due: 0, Done: 5}, {Due: 1, Done: 2}, {Due: 3, Done: 9}}
	if got := backlogAt(outs, 4); got != 2 {
		t.Errorf("backlog at 4 = %d, want 2 (due and not done)", got)
	}
	if backlogGrowing([]int{5, 1, 9, 0, 6, 2, 4, 3}, 2) {
		t.Error("a wandering backlog is not growing")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 2, End: 5},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 8, End: 12}, // runs past the parent: clipped
		{Name: "d", Parent: 3, Start: 9, End: 10},
	}
	self := selfTimes(spans)
	want := []time.Duration{4, 2, 3, 3, 1}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestSpansJoinByRequestID(t *testing.T) {
	spans := []span{
		{Name: "router", Req: "r1", Parent: -1, Start: 2, End: 8},
		{Name: "admission", Req: "r1", Parent: -1, Start: 1, End: 9},
		{Name: "serve", Req: "r1", Parent: -1, Start: 3, End: 7},
		{Name: "admission", Req: "r2", Parent: -1, Start: 20, End: 21},
		{Name: "http.client", Req: "r1", Parent: -1, Start: 0, End: 10},
	}
	linkByRequest(spans, []string{"http.client", "admission", "router", "serve"})
	wantParent := []int{1, 4, 0, -1, -1}
	for i, w := range wantParent {
		if spans[i].Parent != w {
			t.Errorf("span %d (%s %s) parent %d, want %d", i, spans[i].Name, spans[i].Req, spans[i].Parent, w)
		}
	}
	self := selfTimes(spans)
	if self[4] != 2 || self[1] != 2 || self[0] != 2 || self[2] != 4 {
		t.Errorf("self times %v, want client 2, admission 2, router 2, serve 4", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if d := tr.do("x", -1, func() { ran = true }); d != 0 || !ran {
		t.Errorf("nil tracer: do returned %v, ran %v", d, ran)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
	clk := &fakeClock{}
	tr = newTracer(clk.Now)
	if d := tr.do("y", -1, func() { clk.advance(3) }); d != 3 {
		t.Errorf("span duration %v, want 3", d)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the program's metric and
// workload lists in step with BENCHMARK.json, which the runs are judged
// against.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []named, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestCapacitySearch(t *testing.T) {
	for _, capacity := range []float64{157, 30, 1000, 9} {
		var tried []float64
		got := searchCapacity(func(r float64) bool {
			tried = append(tried, r)
			return r <= capacity
		})
		if capacity < ladderFloor {
			if got != 0 {
				t.Errorf("capacity %g below the floor: got %g, want 0", capacity, got)
			}
			continue
		}
		// Climbing in 20% steps and bisecting twice leaves the answer
		// within 5% under the true capacity.
		if got > capacity || got < capacity/1.2*1.15 {
			t.Errorf("capacity %g: got %g after rungs %v", capacity, got, tried)
		}
	}
}

func TestPoissonScheduleIsSeededAndLongEnough(t *testing.T) {
	a := poissonSchedule(newRNG(3, 9), 10, time.Second, 50, 7)
	b := poissonSchedule(newRNG(3, 9), 10, time.Second, 50, 7)
	if len(a) < 50 {
		t.Fatalf("%d arrivals, want at least 50", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs under the same seed: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a[i].State < 0 || a[i].State >= 7 {
			t.Fatalf("arrival %d state %d out of range", i, a[i].State)
		}
	}
	if n := len(poissonSchedule(newRNG(3, 9), 1000, time.Second, 50, 7)); n < 900 {
		t.Errorf("1 s at 1000/s drew %d arrivals", n)
	}
}
