package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	Due   time.Duration // offset from the phase start
	State int           // index of the request state
	Gob   bool          // wire format: gob, else JSON
}

// poissonSchedule draws arrivals at the given mean rate (1/s) until
// dur has passed and at least minN have been drawn, each with a seeded
// state index and a 50/50 format.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, minN, states int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * 1e9)
		if due >= dur && len(out) >= minN {
			return out
		}
		out = append(out, arrival{Due: due, State: rng.IntN(states), Gob: rng.IntN(2) == 1})
	}
}

// outcome is what happened to one arrival. Times are offsets from the
// phase start.
type outcome struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// latency is the time from when the request was due to its
// completion: a stall that delays later sends counts against them
// (choosing-metrics §5).
func (o outcome) latency() time.Duration { return o.Done - o.Due }

// late is how far behind schedule the generator sent the request.
func (o outcome) late() time.Duration { return o.Sent - o.Due }

// clock abstracts time for the open-loop generator so its accounting can
// be tested without sleeping.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// runOpenLoop sends the schedule over conns workers. Each worker takes
// the next arrival, waits for its due time if it is early, and calls
// do; an arrival whose due time has passed is sent at once, late. The
// schedule never waits for replies, so a slow server builds a backlog
// instead of receiving less load.
func runOpenLoop(clk clock, sched []arrival, conns int, do func(i int, a arrival) bool) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				clk.SleepUntil(a.Due)
				sent := clk.Now()
				ok := do(i, a)
				out[i] = outcome{Due: a.Due, Sent: sent, Done: clk.Now(), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// backlogAt counts the requests due by t that had not completed by t.
func backlogAt(outs []outcome, t time.Duration) int {
	n := 0
	for _, o := range outs {
		if o.Due <= t && o.Done > t {
			n++
		}
	}
	return n
}

// backlogSeries samples the backlog at `points` evenly spaced instants
// across the span of due times.
func backlogSeries(outs []outcome, points int) []int {
	if len(outs) == 0 || points < 2 {
		return nil
	}
	last := outs[len(outs)-1].Due
	s := make([]int, points)
	for k := range s {
		s[k] = backlogAt(outs, last*time.Duration(k)/time.Duration(points-1))
	}
	return s
}

// backlogGrowing reports whether the backlog climbed over the phase:
// the mean of the last quarter of samples exceeds the first quarter's
// by more than slack requests. A stable system's backlog wanders
// around λ·latency; an overloaded one grows by (λ−μ)·t.
func backlogGrowing(series []int, slack int) bool {
	q := len(series) / 4
	if q == 0 {
		return false
	}
	first, last := 0, 0
	for i := 0; i < q; i++ {
		first += series[i]
		last += series[len(series)-q+i]
	}
	return float64(last-first)/float64(q) > float64(slack)
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
